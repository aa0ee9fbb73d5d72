package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bfpp/internal/hw"
	"bfpp/internal/model"
)

// TestSweepAllCancelMidFlight cancels a sweep from inside its own progress
// callback and asserts it returns context.Canceled within a bounded
// wall-clock time of the cancel() call, leaves candidates unresolved, and
// leaks no pool goroutines.
func TestSweepAllCancelMidFlight(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	var cancelledAt atomic.Pointer[time.Time]
	var last atomic.Pointer[ProgressSnapshot]
	opt := Options{
		Workers: 4,
		NoPrune: true, // maximize remaining work so cancellation really cuts it short
		Progress: func(snap ProgressSnapshot) {
			last.Store(&snap)
			if calls.Add(1) == 3 {
				now := time.Now()
				cancelledAt.Store(&now)
				cancel()
			}
		},
	}
	_, err := SweepAll(ctx, c, m, AllFamilies(), []int{32, 64, 96, 128, 192, 256}, opt)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// "Drained", not "ran to completion": the terminal snapshot still has
	// unresolved candidates.
	if snap := last.Load(); snap.Done() >= snap.Enumerated {
		t.Errorf("cancelled sweep resolved all %d candidates", snap.Enumerated)
	}
	// "Promptly", timed from the cancel() call so the cold enumeration
	// before the first progress snapshot does not count: an in-flight
	// simulation is a few ms, and two seconds of slack keeps a loaded race
	// run green.
	if elapsed := returned.Sub(*cancelledAt.Load()); elapsed > 2*time.Second {
		t.Errorf("cancelled sweep returned %v after cancel(), want prompt return", elapsed)
	}
	for attempt := 0; runtime.NumGoroutine() > before; attempt++ {
		if attempt > 100 {
			t.Fatalf("pool goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepAllCancelReturnsIncumbents pins graceful degradation at the
// search layer: a sweep cancelled mid-flight returns ctx.Err() AND the
// incumbents-so-far — every entry a fully-simulated, feasible
// configuration whose throughput cannot exceed the full run's winner.
func TestSweepAllCancelReturnsIncumbents(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	fams := AllFamilies()
	batches := []int{32, 64, 96, 128}

	full, err := SweepAll(context.Background(), c, m, fams, batches, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	fullBest := map[string]float64{} // family key + batch -> winning throughput
	for f, bs := range full {
		for _, b := range bs {
			fullBest[fmt.Sprintf("%s@%d", f.Info().Key, b.Plan.BatchSize())] = b.Throughput
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{
		Workers: 4,
		NoPrune: true, // plenty of work left when the cancel lands
		Progress: func(p ProgressSnapshot) {
			if p.Simulated >= 8 {
				cancel()
			}
		},
	}
	partial, err := SweepAll(ctx, c, m, fams, batches, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(partial) == 0 {
		t.Fatal("no incumbents returned despite >= 8 completed simulations")
	}
	seen := 0
	for f, bs := range partial {
		for _, b := range bs {
			seen++
			if b.Throughput <= 0 {
				t.Errorf("%v: partial incumbent has throughput %v", f, b.Throughput)
			}
			// An incumbent is a genuine simulation result, so it can never
			// beat the exhaustive winner for the same (family, batch).
			if want, ok := fullBest[fmt.Sprintf("%s@%d", f.Info().Key, b.Plan.BatchSize())]; ok && b.Throughput > want {
				t.Errorf("%v %v: partial throughput %v exceeds full-run best %v",
					f, b.Plan, b.Throughput, want)
			}
		}
	}
	t.Logf("partial table carried %d incumbents across %d families", seen, len(partial))
}

// TestOptimizeCancelledBeforeStart asserts an already-cancelled context
// fails fast with ctx.Err() — not with a misleading "no feasible
// configuration" from the truncated enumeration.
func TestOptimizeCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Optimize(ctx, hw.PaperCluster(), model.Model6p6B(), FamilyBreadthFirst, 64, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := Sweep(ctx, hw.PaperCluster(), model.Model6p6B(), FamilyBreadthFirst, []int{64}, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep err = %v, want context.Canceled", err)
	}
	if _, err := SweepAll(ctx, hw.PaperCluster(), model.Model6p6B(), Families(), []int{64}, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SweepAll err = %v, want context.Canceled", err)
	}
}

// TestCompletedBeforeCancelUnaffected pins that cancelling after the
// search returned changes nothing: the result equals the background-ctx
// run bit for bit.
func TestCompletedBeforeCancelUnaffected(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	want, err := Optimize(context.Background(), c, m, FamilyBreadthFirst, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got, err := Optimize(ctx, c, m, FamilyBreadthFirst, 64, Options{Workers: 4})
	cancel() // after completion: must not matter
	if err != nil {
		t.Fatal(err)
	}
	if got.Result != want.Result || got.Configs != want.Configs {
		t.Errorf("post-completion cancel changed the result: %+v != %+v", got, want)
	}
}

// TestProgressSnapshots asserts the Progress callback fires, is monotone
// in resolved candidates and ends exactly at the final Stats totals.
func TestProgressSnapshots(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	stats := &Stats{}
	var last atomic.Int64
	var calls atomic.Int64
	_, err := SweepAll(context.Background(), c, m, Families(), []int{32, 64}, Options{
		Workers: 4,
		Stats:   stats,
		Progress: func(p ProgressSnapshot) {
			calls.Add(1)
			done := p.Done()
			if prev := last.Load(); done < prev {
				t.Errorf("progress went backwards: %d -> %d", prev, done)
			}
			last.Store(done)
			if p.Done() > p.Enumerated {
				t.Errorf("done %d exceeds enumerated %d", p.Done(), p.Enumerated)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("progress callback never fired")
	}
	if got, want := last.Load(), stats.Snapshot().Done(); got != want {
		t.Errorf("final progress %d != stats done %d", got, want)
	}
}

// TestProgressWithoutStats pins that Progress works with Options.Stats
// nil (a private counter set is allocated).
func TestProgressWithoutStats(t *testing.T) {
	var calls atomic.Int64
	_, err := Optimize(context.Background(), hw.PaperCluster(), model.Model6p6B(),
		FamilyNoPipeline, 64, Options{Progress: func(ProgressSnapshot) { calls.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("progress callback never fired without Stats")
	}
}
