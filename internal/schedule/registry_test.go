package schedule

import (
	"math/rand"
	"strings"
	"testing"

	"bfpp/internal/core"
)

// TestUnregisteredMethodError asserts the registry returns a clear error
// for a method with no generator instead of a zero-value schedule.
func TestUnregisteredMethodError(t *testing.T) {
	bogus := core.Method(97)
	p := core.Plan{Method: bogus, DP: 1, PP: 1, TP: 1, MicroBatch: 1, NumMicro: 4, Loops: 1}
	if _, err := Generate(p); err == nil {
		t.Fatal("Generate with an unregistered method should fail")
	} else if !strings.Contains(err.Error(), "no generator registered") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := Cached(p); err == nil {
		t.Fatal("Cached with an unregistered method should fail")
	}
}

// TestRegistryCoversAllMethods asserts every registered core method has a
// generator and coherent metadata, and that every generator but the
// list-scheduled V-schedule is Replayable (has an emitter, hence an exact
// tier-2 bound).
func TestRegistryCoversAllMethods(t *testing.T) {
	for _, m := range core.Methods() {
		g, ok := Lookup(m)
		if !ok {
			t.Errorf("method %v has core metadata but no registered generator", m)
			continue
		}
		if g.Method() != m {
			t.Errorf("generator for %v reports method %v", m, g.Method())
		}
		tr := g.Traits()
		if tr.InFlight == nil {
			t.Errorf("%v: Traits.InFlight must be set", m)
		}
		if tr.Family != "" && tr.FamilyName == "" && firstOfFamily(m, tr.Family) {
			t.Errorf("%v: first generator of family %q must set FamilyName", m, tr.Family)
		}
		if want := m != core.VSchedule; Replayable(m) != want {
			t.Errorf("%v: Replayable = %v, want %v", m, Replayable(m), want)
		}
	}
}

func firstOfFamily(m core.Method, key string) bool {
	for _, g := range Generators() {
		if g.Traits().Family == key {
			return g.Method() == m
		}
	}
	return false
}

// randomPlan draws a structurally valid plan for the method, respecting
// the generator's registered constraints, or reports false when the draw
// cannot be repaired.
func randomPlan(rng *rand.Rand, m core.Method) (core.Plan, bool) {
	p := core.Plan{
		Method:     m,
		DP:         1 << rng.Intn(3),
		TP:         1,
		MicroBatch: 1 + rng.Intn(3),
		Sharding:   core.DP0,
	}
	info, ok := m.Info()
	if !ok {
		return p, false
	}
	if !info.Pipelined {
		p.PP = 1
		p.Loops = 1 + rng.Intn(5)
		p.NumMicro = 1 + rng.Intn(8)
		if rng.Intn(2) == 0 && p.DP > 1 {
			p.Sharding = core.DPFS
		}
		return p, true
	}
	p.PP = 2 << rng.Intn(3) // 2..8
	p.Loops = 1
	if info.Looped {
		p.Loops = 1 << rng.Intn(3)
	}
	p.NumMicro = p.PP * (1 + rng.Intn(4))
	switch m {
	case core.BreadthFirst:
		if rng.Intn(2) == 0 && p.DP > 1 {
			p.Sharding = core.DPFS
		}
	case core.Hybrid:
		// Sequence: a multiple of PP dividing NumMicro.
		p.Sequence = p.PP
		if p.NumMicro%(2*p.PP) == 0 && rng.Intn(2) == 0 {
			p.Sequence = 2 * p.PP
		}
	case core.VSchedule:
		p.Sequence = rng.Intn(2*p.PP + 1) // 0 = default cap
	}
	if info.CheckPlan != nil && info.CheckPlan(p) != nil {
		return p, false
	}
	if info.CheckSharding != nil && info.CheckSharding(p) != nil {
		return p, false
	}
	return p, true
}

// TestRandomizedPlansPassCheck runs schedule.Check over randomized plans
// for every registered generator, including the two extension schedules.
func TestRandomizedPlansPassCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, g := range Generators() {
		m := g.Method()
		generated := 0
		for trial := 0; trial < 400 && generated < 50; trial++ {
			p, ok := randomPlan(rng, m)
			if !ok {
				continue
			}
			s, err := Generate(p)
			if err != nil {
				t.Fatalf("%v: Generate(%v): %v", m, p, err)
			}
			if err := Check(s); err != nil {
				t.Fatalf("%v: Check(%v): %v", m, p, err)
			}
			generated++
		}
		if generated < 20 {
			t.Errorf("%v: only %d random plans generated; generator under-tested", m, generated)
		}
	}
}

// TestWeightStashProgramMatchesOneFOneB pins the WS-1F1B modeling choice:
// within one synchronous batch its compute program equals 1F1B's — what
// changes are the overlap trait and the stashed-weights memory hook.
func TestWeightStashProgramMatchesOneFOneB(t *testing.T) {
	ws := core.Plan{Method: core.WeightStash1F1B, DP: 2, PP: 4, TP: 1,
		MicroBatch: 1, NumMicro: 8, Loops: 1, OverlapDP: true, OverlapPP: true}
	ob := ws
	ob.Method = core.OneFOneB
	ob.OverlapDP, ob.OverlapPP = false, false
	sw, err := Generate(ws)
	if err != nil {
		t.Fatal(err)
	}
	so, err := Generate(ob)
	if err != nil {
		t.Fatal(err)
	}
	for r := range sw.Devices {
		if len(sw.Devices[r]) != len(so.Devices[r]) {
			t.Fatalf("device %d: program lengths differ", r)
		}
		for i := range sw.Devices[r] {
			if sw.Devices[r][i] != so.Devices[r][i] {
				t.Fatalf("device %d op %d: %v != %v", r, i, sw.Devices[r][i], so.Devices[r][i])
			}
		}
	}
	tr := TraitsOf(core.WeightStash1F1B)
	if !tr.Overlap {
		t.Error("WS-1F1B must declare overlapped communication")
	}
	if tr.StashedWeights == nil || tr.StashedWeights(ws) != 3 {
		t.Error("WS-1F1B at PP=4, Nmb=8 should stash PP-1 = 3 extra weight versions")
	}
}

// TestVScheduleMemoryDial asserts the V-schedule's in-flight cap is a real
// memory dial: the generated worst-device in-flight tracks the cap, and
// smaller caps never exceed larger ones.
func TestVScheduleMemoryDial(t *testing.T) {
	base := core.Plan{Method: core.VSchedule, DP: 1, PP: 4, TP: 1,
		MicroBatch: 1, NumMicro: 16, Loops: 2, OverlapDP: true, OverlapPP: true}
	prev := 0
	for _, cap := range []int{2, 4, 8, 16} {
		p := base
		p.Sequence = cap
		s, err := Generate(p)
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		worst := 0
		for _, prog := range s.Devices {
			if v := MaxInFlight(prog); v > worst {
				worst = v
			}
		}
		// The deadlock-freedom exemption may exceed the cap by a bounded
		// amount, but the dial must be monotone and roughly track the cap.
		if worst < prev {
			t.Errorf("cap %d: worst in-flight %d below smaller cap's %d", cap, worst, prev)
		}
		if worst > cap+p.Loops*p.PP {
			t.Errorf("cap %d: worst in-flight %d far above cap", cap, worst)
		}
		// The registered memory hook must report the exact generated peak.
		if got := TraitsOf(core.VSchedule).InFlight(p); got != worst {
			t.Errorf("cap %d: InFlight hook %d != generated peak %d", cap, got, worst)
		}
		prev = worst
	}
}

// TestVSchedulePlacementIsVee asserts the zigzag placement: odd loops run
// in reverse device order, so device 0 hosts the first and (for Loops=2)
// last stages and the apex stages share a device.
func TestVSchedulePlacementIsVee(t *testing.T) {
	p := core.Plan{Method: core.VSchedule, DP: 1, PP: 4, TP: 1,
		MicroBatch: 1, NumMicro: 8, Loops: 2}
	if got := p.StageDevice(0); got != 0 {
		t.Errorf("stage 0 on device %d, want 0", got)
	}
	if got := p.StageDevice(7); got != 0 {
		t.Errorf("stage 7 on device %d, want 0 (V turnback)", got)
	}
	if a, b := p.StageDevice(3), p.StageDevice(4); a != b {
		t.Errorf("apex stages 3,4 on devices %d,%d, want shared", a, b)
	}
	if got := p.DeviceStages(0); len(got) != 2 || got[0] != 0 || got[1] != 7 {
		t.Errorf("device 0 stages = %v, want [0 7]", got)
	}
}
