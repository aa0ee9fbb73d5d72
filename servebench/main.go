// Command servebench is bfpp's end-to-end benchmark. It launches the real
// bfpp-serve binary, drives it over loopback HTTP with closed-loop clients
// sending seeded requests, verifies every answer against the in-process
// library, and prints the end-to-end metrics. With -trace 1 it instead
// replays the same seeded inputs in process and times each call into the
// planner's modules, printing per-layer metrics.
//
// Run it through run.sh from the repository root, which builds both
// binaries from the checkout:
//
//	sh servebench/run.sh --workload plan-sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a full
// report with the run metadata. See README.md for the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricSpec is one reported metric with its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the tracing-off metrics every workload reports; p50_ms,
// p90_ms and ops_per_s are over the workload's primary class (cache-missing
// searches on plan-sweep and durable-repeat, simulations on what-if-sim).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricSpec{
	{"search.sweep_ms", "ms"}, {"search.sweep_w1_ms", "ms"}, {"search.scaling", "ratio"},
	{"search.enumerate_us", "us"},
	{"search.enumerated", "count"}, {"search.dominated", "count"}, {"search.bound_skipped", "count"},
	{"search.floored_out", "count"}, {"search.replay_priced", "count"}, {"search.simulated", "count"},
	{"search.warm_start_hits", "count"}, {"search.prune_rate", "ratio"},
	{"analytic.floor_us", "us"}, {"analytic.replay_us", "us"}, {"analytic.replay_cached_us", "us"},
	{"engine.precheck_us", "us"}, {"engine.simulate_us", "us"},
	{"cost.paper.derive_us", "us"}, {"cost.contended.derive_us", "us"},
	{"schedule.generate_us", "us"}, {"schedule.cache_misses", "count"}, {"schedule.lookups", "count"},
	{"schedule.warmup_misses", "count"},
	{"memsim.estimate_us", "us"}, {"memsim.cached_us", "us"},
	{"service.search_ms", "ms"}, {"service.overhead_ms", "ms"}, {"service.http_overhead_ms", "ms"},
	{"service.hit_us", "us"}, {"service.hit_http_us", "us"}, {"service.simulate_us", "us"},
	{"service.cache_hits", "count"}, {"service.store_hits", "count"},
	{"store.open_ms", "ms"}, {"store.put_us", "us"}, {"store.get_us", "us"},
	{"store.journal_append_us", "us"}, {"store.bytes_per_miss", "B"},
	{"trace.overhead_ms_per_input", "ms"}, {"trace.inputs", "count"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", planSweep, "workload: plan-sweep, what-if-sim or durable-repeat")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "workload seed; the requests are a pure function of it")
	flag.IntVar(&cfg.Seconds, "seconds", 20, "measured window (tracing off) or traced-run budget, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the in-process traced run and prints per-layer metrics")
	flag.StringVar(&cfg.Server, "server", "", "bfpp-serve binary (run.sh builds it)")
	flag.StringVar(&cfg.Work, "work", filepath.Join(".bench_build", "servebench", "work"), "scratch directory for stores")
	out := flag.String("out", filepath.Join(".bench_build", "servebench", "results"), "directory for the report and span files")
	flag.Parse()
	cfg.GOMAXPROCS = runtime.NumCPU()
	if cfg.Seconds < 1 {
		return errors.New("need -seconds >= 1")
	}
	if trace != 1 {
		if _, err := os.Stat(cfg.Server); err != nil || cfg.Server == "" {
			return fmt.Errorf("-server: bfpp-serve binary %q not found", cfg.Server)
		}
	}
	ctx := context.Background()
	w, err := generate(cfg.Workload, cfg.Seed, runtime.NumCPU())
	if err != nil {
		return err
	}
	md := hostMeta(cfg, w)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.Name, w.Seed, trace))

	var res result
	var report map[string]any
	if trace == 1 {
		m, spans, err := runTrace(ctx, cfg, w)
		if err != nil {
			return err
		}
		if err := writeJSON(stem+"-spans.json", map[string]any{"meta": md, "totals": totals(spans), "spans": spans}); err != nil {
			return err
		}
		res = result{Correct: true, Attempted: int(m["trace.inputs"]), Metrics: pick(m, perLayer)}
		report = map[string]any{"meta": md, "layers": m}
	} else {
		e, err := runE2E(ctx, cfg, w)
		if err != nil {
			return err
		}
		var full map[string]float64
		var timed map[string]int
		res, full, timed = e2eMetrics(w, e)
		report = map[string]any{"meta": md, "metrics": full, "timed_samples": timed,
			"attempted": res.Attempted, "failed": res.Failed, "mismatches": e.mismatch,
			"setups": e.setups, "slices": e.slices}
		for _, c := range []string{classMiss, classHit, classSim} {
			if n := timed[c]; n > 0 && n < minSamples {
				fmt.Fprintf(os.Stderr, "servebench: warning: only %d %s samples (p90 wants >= %d)\n", n, c, minSamples)
			}
		}
	}
	if err := writeJSON(stem+".json", report); err != nil {
		return err
	}
	rb, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println(string(rb))
	lb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(lb))
	return nil
}

// e2eMetrics derives the contract result and the full named metric set
// (per request class, as the README lists them) from a tracing-off run.
// Latencies and rates use the replies that arrived in quiet slices;
// failures count over the whole window.
func e2eMetrics(w *workload, e *e2eResult) (res result, full map[string]float64, timed map[string]int) {
	quiet := e.quiet()
	var quietTime time.Duration
	var stolen float64
	nQuiet := 0
	for i, s := range e.slices {
		stolen += s.Steal * s.Dur.Seconds()
		if quiet[i] {
			quietTime += s.Dur
			nQuiet++
		}
	}
	lat := map[string][]time.Duration{}
	failed := e.mismatch
	searches := 0
	for _, s := range e.samples {
		if !s.ok {
			failed++
			continue
		}
		if s.slice >= len(quiet) || !quiet[s.slice] {
			continue
		}
		lat[s.class] = append(lat[s.class], s.dur)
		if s.class != classSim {
			searches++
		}
	}
	var wall time.Duration
	for _, s := range e.slices {
		wall += s.Dur
	}
	full = map[string]float64{
		"setup_s":              e.setupSeconds(),
		"peak_rss_mb":          e.peakRSSMB,
		"error_rate":           float64(failed) / float64(max(1, len(e.samples))),
		"host_steal":           stolen / max(1e-9, wall.Seconds()),
		"quiet_share":          float64(nQuiet) / float64(max(1, len(e.slices))),
		"server_cpu_ms_per_op": 1000 * e.serverCPU / float64(max(1, len(e.samples))),
	}
	for name, counter := range map[string]string{
		"service.cache_hits": "bfpp_search_cache_hits_total",
		"service.store_hits": "bfpp_store_hits_total",
		"service.shed":       "bfpp_jobs_shed_total",
	} {
		full[name] = e.counters[counter]
	}
	put := func(prefix, class string) {
		full[prefix+"_p50_ms"] = ms(percentile(lat[class], 50))
		full[prefix+"_p90_ms"] = ms(percentile(lat[class], 90))
	}
	primary := classMiss
	switch w.Name {
	case whatIfSim:
		primary = classSim
		put("sim", classSim)
		full["sims_per_s"] = rate(len(lat[classSim]), quietTime)
		full["ops_per_s"] = full["sims_per_s"]
	case durableRepeat:
		put("hit", classHit)
		full["disk_mb"] = e.diskMB
		fallthrough
	default:
		put("search", classMiss)
		full["searches_per_s"] = rate(searches, quietTime)
		full["ops_per_s"] = full["searches_per_s"]
	}
	full["p50_ms"] = ms(percentile(lat[primary], 50))
	full["p90_ms"] = ms(percentile(lat[primary], 90))
	timed = map[string]int{}
	for c, l := range lat {
		timed[c] = len(l)
	}
	return result{
		Correct:   e.mismatch == 0,
		Attempted: len(e.samples),
		Failed:    failed,
		Metrics:   pick(full, endToEnd),
	}, full, timed
}

// pick selects the listed metrics with their units.
func pick(m map[string]float64, specs []metricSpec) map[string]value {
	out := map[string]value{}
	for _, s := range specs {
		out[s.name] = value{Value: m[s.name], Unit: s.unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
