package search

import (
	"context"
	"sync"
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/model"
)

// serialReference is the oracle the searches are checked against: a plain
// serial loop over Enumerate that simulates every plan on the reference DES
// with the memo caches bypassed and keeps the first result no later one
// strictly exceeds. It shares no code with evalGroups. Batches with no
// feasible plan are skipped, as Sweep skips them.
func serialReference(t *testing.T, c hw.Cluster, m model.Transformer, f Family, batches []int) []Best {
	t.Helper()
	var out []Best
	for _, b := range batches {
		plans := Enumerate(context.Background(), c, m, f, b, Options{})
		if len(plans) == 0 {
			continue
		}
		best := Best{Configs: len(plans)}
		for i, p := range plans {
			r, err := engine.SimulateOpts(c, m, p, engine.Options{DisableCache: true, ReferenceDES: true})
			if err != nil {
				t.Fatalf("%v batch %d: %v", f, b, err)
			}
			if i == 0 || r.Throughput > best.Throughput {
				best.Result = r
			}
		}
		out = append(out, best)
	}
	return out
}

// TestOptimizeParallelMatchesBaseline runs the same (family, batch) search
// through the serial reference and through the worker pool at several
// widths, asserting identical winners, throughputs and candidate counts.
func TestOptimizeParallelMatchesBaseline(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	for _, f := range Families() {
		want := serialReference(t, c, m, f, []int{64})[0]
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := Optimize(context.Background(), c, m, f, 64, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", f, workers, err)
			}
			if got.Plan != want.Plan {
				t.Errorf("%v workers=%d: plan %v != %v", f, workers, got.Plan, want.Plan)
			}
			if got.Throughput != want.Throughput || got.Configs != want.Configs {
				t.Errorf("%v workers=%d: (%.6g, %d) != (%.6g, %d)", f, workers,
					got.Throughput, got.Configs, want.Throughput, want.Configs)
			}
			if got.Result != want.Result {
				t.Errorf("%v workers=%d: full result differs", f, workers)
			}
		}
	}
}

// TestSweepParallelMatchesBaseline compares the formatted Table E output —
// the acceptance criterion is byte-for-byte identity, including infeasible
// batch skipping.
func TestSweepParallelMatchesBaseline(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	batches := []int{1, 32, 64, 96} // batch 1 is infeasible and must be skipped
	reference := map[Family][]Best{}
	parallelRes := map[Family][]Best{}
	for _, f := range Families() {
		reference[f] = serialReference(t, c, m, f, batches)
		p, err := Sweep(context.Background(), c, m, f, batches, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%v parallel: %v", f, err)
		}
		parallelRes[f] = p
	}
	want := Table("equivalence", reference)
	got := Table("equivalence", parallelRes)
	if got != want {
		t.Errorf("parallel Table output differs from serial reference:\n--- reference ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestPickBestTieStable pins the deterministic tie-break: among equal
// maximal throughputs the lowest-indexed result wins, exactly like the
// serial loop's strict `>` comparison.
func TestPickBestTieStable(t *testing.T) {
	mk := func(tp float64, dp int) engine.Result {
		return engine.Result{Plan: core.Plan{DP: dp}, Throughput: tp}
	}
	results := []engine.Result{mk(1, 1), mk(3, 2), mk(3, 3), mk(2, 4), mk(3, 5)}
	best := pickBest(results)
	if best.Plan.DP != 2 {
		t.Errorf("tie-break picked DP=%d, want the first maximal result (DP=2)", best.Plan.DP)
	}
	if best.Configs != len(results) {
		t.Errorf("Configs = %d, want %d", best.Configs, len(results))
	}
	// Strictly increasing throughputs: last wins.
	if got := pickBest([]engine.Result{mk(1, 1), mk(2, 2), mk(3, 3)}); got.Plan.DP != 3 {
		t.Errorf("max selection picked DP=%d, want 3", got.Plan.DP)
	}
}

// TestOptimizeConcurrentCallers exercises concurrent top-level searches
// sharing the schedule/memsim caches (run under -race in ci.sh).
func TestOptimizeConcurrentCallers(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	want := serialReference(t, c, m, FamilyBreadthFirst, []int{64})[0]
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := Optimize(context.Background(), c, m, FamilyBreadthFirst, 64, Options{Workers: 2})
			if err != nil {
				errs[i] = err
				return
			}
			if got.Result != want.Result || got.Configs != want.Configs {
				t.Errorf("concurrent caller %d diverged", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
