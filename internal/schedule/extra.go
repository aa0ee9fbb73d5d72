package schedule

import (
	"fmt"

	"bfpp/internal/core"
)

// This file holds the reproduction's two extension schedules, shipped
// through the registry as the proof of the pluggable-generator
// architecture: a PipeDream-style weight-stashing 1F1B (Harlap et al.,
// 2018) and the controllable-memory V-schedule (Qi et al., 2024). Their
// core metadata is registered in registry.go's init alongside the
// generators.

// weightStashGen is 1F1B with PipeDream-style weight stashing. Within one
// synchronous training batch the data dependencies are exactly 1F1B's
// (weight stashing relaxes weight-version dependencies, not activation
// dependencies), so it embeds the 1F1B generator and shares its program
// (emit and Generate). What stashing changes is the implementation
// profile: every in-flight micro-batch pins the half-precision weight
// version it was forwarded with (counted by the StashedWeights memory
// hook), and communication is not coupled to a pipeline flush, so the
// implementation overlaps data- and pipeline-parallel traffic with compute
// like the paper's runtime (Overlap trait) instead of paying Megatron-LM's
// blocking stalls.
type weightStashGen struct{ oneFOneBGen }

func (weightStashGen) Method() core.Method { return core.WeightStash1F1B }

func (weightStashGen) Traits() Traits {
	return Traits{
		Family: "ws", FamilyName: "WS-1F1B (PipeDream)",
		Overlap:   true,
		Shardings: []core.Sharding{core.DP0},
		InFlight:  oneFOneBPairs,
		// One stashed copy per in-flight micro-batch beyond the current
		// weights.
		StashedWeights: func(p core.Plan) int { return oneFOneBPairs(p) - 1 },
	}
}

// vCap returns the V-schedule's effective per-device in-flight cap in
// (stage, micro-batch) activation pairs: Plan.Sequence when set, else
// N_PP. A device needs at least Loops slots to carry one micro-batch
// through all of its local stages; explicit caps below that are rejected
// by the method's CheckPlan, and the default is floored here for deep
// loopings (Loops > PP).
func vCap(p core.Plan) int {
	c := p.Sequence
	if c <= 0 {
		c = p.PP
	}
	if c < p.Loops {
		c = p.Loops
	}
	return c
}

// vScheduleGen is the controllable-memory V-schedule. Stages are placed in
// the zigzag "V" pattern (core.PlacementVee): odd loops run in reverse
// device order, so each device hosts complementary early and late stages —
// device 0 owns both the first forward stage (longest-lived activations)
// and the last stage (where the backward pass begins), balancing activation
// lifetimes across devices, and the turnaround stages share a device so
// the apex transfer disappears.
//
// The program is built by deterministic greedy list scheduling over the
// stage dependency graph: each device runs ready backwards first (draining
// activation memory) and otherwise the lowest-(micro, stage) ready forward,
// subject to the in-flight cap vCap (the controllable-memory dial —
// smaller caps trade pipeline bubble for activation memory). To stay
// deadlock-free at any cap the op at the head of the serial
// micro-batch-major order is always cap-exempt, so the worst-device
// in-flight can exceed the cap by a few pairs; the memory-model hook
// reports the exact generated peak.
type vScheduleGen struct{}

func (vScheduleGen) Method() core.Method { return core.VSchedule }

func (vScheduleGen) Traits() Traits {
	return Traits{
		Family: "v", FamilyName: "V-schedule (controllable mem)",
		Overlap:   true,
		Shardings: []core.Sharding{core.DP0},
		// The greedy construction may exceed the cap slightly where the
		// deadlock-freedom exemption fires; report the exact peak of the
		// generated programs.
		InFlight: func(p core.Plan) int {
			s, err := Cached(p)
			if err != nil {
				return p.NumMicro * p.Loops
			}
			worst := 0
			for _, prog := range s.Devices {
				if v := MaxInFlight(prog); v > worst {
					worst = v
				}
			}
			return worst
		},
		// The exact in-flight hook above generates programs; the floor is
		// the cheap admissible bound the search's memory pre-filter uses:
		// just before the first backward of the last stage, its device has
		// forwarded micro-batch 0 through all of its local stages and
		// retired nothing, so the worst device holds at least Loops pairs
		// whatever the cap.
		InFlightFloor: func(p core.Plan) int { return p.Loops },
		KeyExtra:      vCap,
		// The greedy list-scheduled programs have no per-rank emitter, so
		// the exact tier-2 bound (ReplayLB) replays the checked, memoized
		// program instead; the vee-placement warmup/drain floor (with its
		// cap-aware term) is the cheap tier-1 bound internal/analytic
		// maximizes with the generic floor, settling candidates before
		// any replay.
		StepFloor: vScheduleFloor,
		// The controllable-memory dial (ROADMAP open item): enumerate a
		// small set of in-flight caps per grid point — the default (N_PP),
		// the deadlock floor (Loops, minimum activation memory), a midpoint
		// and a deeper 2*N_PP cap — deduplicated by effective cap so the
		// candidate list stays tight.
		SequenceOptions: func(p core.Plan) []int {
			base := p
			seen := map[int]bool{}
			var opts []int
			for _, s := range []int{0, p.Loops, (p.Loops + p.PP) / 2, 2 * p.PP} {
				if s > 0 && s < p.Loops {
					continue // rejected by the method's CheckPlan
				}
				base.Sequence = s
				eff := vCap(base)
				if seen[eff] {
					continue
				}
				seen[eff] = true
				opts = append(opts, s)
			}
			return opts
		},
	}
}

// vOp identifies one compute op during V-schedule construction.
type vOp struct {
	backward bool
	stage    int
	micro    int
}

// vPriority orders a device's ready ops: backwards before forwards, then
// lowest micro-batch, then lowest stage.
func vPriority(a, b vOp) bool {
	if a.backward != b.backward {
		return a.backward
	}
	if a.micro != b.micro {
		return a.micro < b.micro
	}
	return a.stage < b.stage
}

func (vScheduleGen) Generate(p core.Plan) (*Schedule, error) {
	nStages := p.Stages()
	nm := p.NumMicro
	capPairs := vCap(p)

	// Finish times of scheduled ops, indexed forward = s*nm + m and
	// backward = (nStages+s)*nm + m; a negative value means unscheduled.
	fin := make([]float64, 2*nStages*nm)
	for i := range fin {
		fin[i] = -1
	}
	fIdx := func(s, m int) int { return s*nm + m }
	bIdx := func(s, m int) int { return (nStages+s)*nm + m }

	owner := make([]int, nStages)
	for s := range owner {
		owner[s] = p.StageDevice(s)
	}

	ready := make([][]vOp, p.PP) // per-device ready compute ops
	for m := 0; m < nm; m++ {
		ready[owner[0]] = append(ready[owner[0]], vOp{stage: 0, micro: m})
	}
	free := make([]float64, p.PP)  // per-device stream frontier
	inflight := make([]int, p.PP)  // forwards issued minus backwards issued
	progs := make([]Program, p.PP) // emitted programs, in schedule order
	serial := 0                    // head of the micro-major serial order
	scheduled, total := 0, 2*nStages*nm

	// serialOp returns the k-th op of the serial micro-batch-major order
	// (micro 0: F stages 0..n-1 then B stages n-1..0, then micro 1, ...),
	// a valid topological order whose head is always cap-exempt.
	serialOp := func(k int) vOp {
		m, r := k/(2*nStages), k%(2*nStages)
		if r < nStages {
			return vOp{stage: r, micro: m}
		}
		return vOp{backward: true, stage: 2*nStages - 1 - r, micro: m}
	}

	// depFinish returns the latest finish among an op's dependencies
	// (guaranteed scheduled for ready ops).
	depFinish := func(o vOp) float64 {
		var t float64
		if !o.backward {
			if o.stage > 0 {
				t = fin[fIdx(o.stage-1, o.micro)]
			}
			return t
		}
		t = fin[fIdx(o.stage, o.micro)]
		if o.stage < nStages-1 {
			if bt := fin[bIdx(o.stage+1, o.micro)]; bt > t {
				t = bt
			}
		}
		return t
	}

	for scheduled < total {
		// Advance the serial head past already-scheduled ops.
		for serial < total {
			h := serialOp(serial)
			idx := fIdx(h.stage, h.micro)
			if h.backward {
				idx = bIdx(h.stage, h.micro)
			}
			if fin[idx] < 0 {
				break
			}
			serial++
		}
		head := serialOp(serial)

		// Pick, per device, its best runnable op (ready backwards always;
		// ready forwards when under the cap or at the serial head), then
		// the device whose op starts earliest.
		bestDev, bestAt := -1, -1
		var bestStart float64
		for d := 0; d < p.PP; d++ {
			at := -1
			for i, o := range ready[d] {
				if !o.backward && inflight[d] >= capPairs && o != head {
					continue
				}
				if at < 0 || vPriority(o, ready[d][at]) {
					at = i
				}
			}
			if at < 0 {
				continue
			}
			start := free[d]
			if t := depFinish(ready[d][at]); t > start {
				start = t
			}
			if bestDev < 0 || start < bestStart {
				bestDev, bestAt, bestStart = d, at, start
			}
		}
		if bestDev < 0 {
			// Unreachable: the serial head is always runnable on its device.
			return nil, fmt.Errorf("schedule: v-schedule stalled at cap %d (%d/%d ops)", capPairs, scheduled, total)
		}

		d, o := bestDev, ready[bestDev][bestAt]
		ready[d] = append(ready[d][:bestAt], ready[d][bestAt+1:]...)
		dur := 1.0 // forward unit time
		if o.backward {
			dur = 2.0 // backward (with recompute) roughly twice the forward
		}
		end := bestStart + dur
		free[d] = end
		scheduled++
		if o.backward {
			fin[bIdx(o.stage, o.micro)] = end
			inflight[d]--
			progs[d] = append(progs[d], Op{Backward, o.stage, o.micro})
			if o.stage > 0 {
				// F(stage-1, micro) finished long ago (it is upstream of
				// this backward), so B(stage-1, micro) is now ready.
				ready[owner[o.stage-1]] = append(ready[owner[o.stage-1]],
					vOp{backward: true, stage: o.stage - 1, micro: o.micro})
			}
		} else {
			fin[fIdx(o.stage, o.micro)] = end
			inflight[d]++
			progs[d] = append(progs[d], Op{Forward, o.stage, o.micro})
			if o.stage < nStages-1 {
				ready[owner[o.stage+1]] = append(ready[owner[o.stage+1]],
					vOp{stage: o.stage + 1, micro: o.micro})
			} else {
				ready[d] = append(ready[d], vOp{backward: true, stage: o.stage, micro: o.micro})
			}
		}
	}

	for r := 0; r < p.PP; r++ {
		b := progBuilder{p: p, prog: progs[r]}
		b.bunchedReduces(r)
		progs[r] = b.finish()
	}
	// No self-check here: every caller (Cached, the engine's uncached
	// path, the runtime, the tests) runs schedule.Check on the result.
	return &Schedule{Plan: p, Devices: progs}, nil
}
