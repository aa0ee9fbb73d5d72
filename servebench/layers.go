package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"bfpp/internal/analytic"
	"bfpp/internal/core"
	"bfpp/internal/cost"
	"bfpp/internal/engine"
	"bfpp/internal/memsim"
	"bfpp/internal/schedule"
	"bfpp/internal/search"
	"bfpp/internal/service"
	"bfpp/internal/store"
)

// Traced-run sizing.
const (
	countInputs    = 6  // inputs whose counters are reported (fixed, so counts repeat)
	samplePerGroup = 16 // enumerated candidates priced per (family, batch) group
)

// traceInput is one step of the traced run: a search scenario and the
// simulations that go with it.
type traceInput struct {
	search service.SearchRequest
	// sims are what-if-sim's requested plans; nil means the search's group
	// winners are simulated instead.
	sims []service.SimulateRequest
}

// traceInputs derives the traced run's inputs from the workload's own
// seeded requests: plan-sweep's searches, durable-repeat's misses in
// client order, and what-if-sim's simulations with the single-group
// search each plan was enumerated from.
func traceInputs(w *workload) []traceInput {
	var out []traceInput
	origin := map[string]service.SearchRequest{}
	for _, sc := range w.Sims {
		origin[request{Sim: &sc.Req}.key()] = sc.Origin
	}
	for pos := 0; ; pos++ {
		more := false
		for _, s := range w.Streams {
			if pos >= len(s) {
				continue
			}
			more = true
			q := s[pos]
			switch {
			case q.Sim != nil:
				out = append(out, traceInput{search: origin[q.key()], sims: []service.SimulateRequest{*q.Sim}})
			case q.Class == classMiss:
				out = append(out, traceInput{search: *q.Search})
			}
		}
		if !more || len(out) > 4096 {
			return out
		}
	}
}

// tracedRun holds the in-process services and stores one pass uses.
type tracedRun struct {
	tr       *tracer
	plain    *service.Service // cache disabled: every Search sweeps
	cached   *service.Service
	plainTS  *httptest.Server // loopback HTTP into service.Handler(plain)
	cacheTS  *httptest.Server
	hc       *http.Client
	st       *store.File
	jr       *store.Journal
	derive   []cost.Model
	seenKeys map[schedule.Key]bool
	// counters, filled while counting is on
	counting bool
	stats    search.Stats
	misses   int64 // schedule memo misses and lookups of the counted sweeps
	lookups  int64
	counted  int
}

// runTrace replays the workload's inputs in process twice, with tracing
// off and on, for the run's budget; it returns the per-layer metrics and
// the spans.
func runTrace(ctx context.Context, cfg config, w *workload) (map[string]float64, []span, error) {
	dir := filepath.Join(cfg.Work, fmt.Sprintf("trace-%s-%d", w.Name, w.Seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	inputs := traceInputs(w)

	// The same warm-up the server gets, so memo caches are as warm as in
	// the measured window. On plan-sweep and durable-repeat the schedule
	// memo is still cold here, so its misses are the schedules set-up
	// builds; what-if-sim's generator already simulated these plans.
	warmSvc := service.New(service.Config{CacheEntries: -1, MaxQueued: -1})
	_, warm0 := schedule.CacheStats()
	for _, q := range w.Warmup {
		var err error
		if q.Sim != nil {
			_, err = warmSvc.Simulate(ctx, *q.Sim)
		} else {
			_, err = warmSvc.Search(ctx, *q.Search)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	_, warm1 := schedule.CacheStats()

	off, err := newTracedRun(filepath.Join(dir, "off"), false)
	if err != nil {
		return nil, nil, err
	}
	defer off.close()
	on, err := newTracedRun(filepath.Join(dir, "on"), true)
	if err != nil {
		return nil, nil, err
	}
	defer on.close()
	// The passes run input by input, alternating which goes first, so
	// first-touch costs (memo fills, heap growth) fall on both alike. The
	// counted inputs run untraced first, so their counters see the same
	// cache state whatever the budget; for that reason the pass totals,
	// and so the tracing overhead, cover only the inputs after them. The
	// traced pass's store after the counted inputs is kept: its size does
	// not depend on the budget.
	var offTotal, onTotal time.Duration
	t0 := time.Now()
	n := 0
	for ; n < len(inputs) && (n < countInputs+2 || time.Since(t0) < time.Duration(cfg.Seconds)*time.Second); n++ {
		off.counting = n < countInputs
		order := []*tracedRun{off, on}
		if n >= countInputs && n%2 == 1 {
			order[0], order[1] = on, off
		}
		for _, r := range order {
			t := time.Now()
			if err := r.step(ctx, n, inputs[n]); err != nil {
				return nil, nil, err
			}
			switch {
			case n < countInputs:
			case r == off:
				offTotal += time.Since(t)
			default:
				onTotal += time.Since(t)
			}
		}
		if n == countInputs-1 {
			if err := copyDir(filepath.Join(dir, "on"), filepath.Join(dir, "fixed")); err != nil {
				return nil, nil, err
			}
		}
	}
	off.close()
	on.close()
	logBytes, err := dirMB(filepath.Join(dir, "on"))
	if err != nil {
		return nil, nil, err
	}

	m := layerMetrics(totals(on.tr.spans))
	st := &off.stats
	per := func(v int64) float64 { return float64(v) / float64(off.counted) }
	m["search.enumerated"] = per(st.Enumerated.Load())
	m["search.dominated"] = per(st.Dominated.Load())
	m["search.bound_skipped"] = per(st.BoundSkipped.Load())
	m["search.floored_out"] = per(st.FlooredOut.Load())
	m["search.replay_priced"] = per(st.ReplayPriced.Load())
	m["search.simulated"] = per(st.Simulated.Load())
	m["search.warm_start_hits"] = per(st.WarmStartHits.Load())
	m["search.prune_rate"] = st.PruneRate()
	m["schedule.cache_misses"] = per(off.misses)
	m["schedule.lookups"] = per(off.lookups)
	m["schedule.warmup_misses"] = float64(warm1-warm0) / float64(len(w.Warmup))
	m["store.bytes_per_miss"] = logBytes * (1 << 20) / float64(n)
	m["trace.untraced_ms"] = ms(offTotal)
	m["trace.overhead_ms_per_input"] = ms(onTotal-offTotal) / float64(n-countInputs)
	m["trace.inputs"] = float64(n)

	openMS, err := timeStoreOpen(w, dir)
	if err != nil {
		return nil, nil, err
	}
	m["store.open_ms"] = openMS
	counters, err := replayCounters(ctx, w, dir)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range counters {
		m[k] = v
	}
	return m, on.tr.spans, nil
}

func newTracedRun(dir string, traced bool) (*tracedRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &tracedRun{
		tr:       newTracer(traced),
		plain:    service.New(service.Config{CacheEntries: -1, MaxQueued: -1}),
		cached:   service.New(service.Config{MaxQueued: -1}),
		hc:       newClient(),
		seenKeys: map[schedule.Key]bool{},
	}
	for _, name := range costModels {
		cm, err := cost.Lookup(name)
		if err != nil {
			return nil, err
		}
		r.derive = append(r.derive, cm)
	}
	var err error
	opts := store.Options{Repair: true}
	if r.st, err = store.OpenOptions(filepath.Join(dir, resultsLog), opts); err != nil {
		return nil, err
	}
	if r.jr, err = store.OpenJournalOptions(filepath.Join(dir, journalFile), opts); err != nil {
		r.st.Close()
		return nil, err
	}
	r.plainTS = httptest.NewServer(service.Handler(r.plain))
	r.cacheTS = httptest.NewServer(service.Handler(r.cached))
	return r, nil
}

func (r *tracedRun) close() {
	r.hc.CloseIdleConnections()
	r.plainTS.Close()
	r.cacheTS.Close()
	r.jr.Close()
	r.st.Close()
}

// step runs one input through every layer, each call inside its own span
// under one root span per input.
func (r *tracedRun) step(ctx context.Context, i int, in traceInput) error {
	tr := r.tr
	q := in.search
	root := tr.start("request", i, -1)
	defer tr.finish(root)
	sc, err := resolve(q)
	if err != nil {
		return err
	}
	q.Workers = 0

	// search: the sweep at one worker first, so that the schedule memo
	// misses counted around it are the ones this request brings, and
	// then at GOMAXPROCS.
	var stats *search.Stats
	if r.counting {
		stats = &r.stats
		r.counted++
	}
	h0, m0 := schedule.CacheStats()
	tr.timed("search.sweep_w1", i, root, func() { _, err = sc.sweep(ctx, q, 1, stats) })
	if err != nil {
		return err
	}
	if r.counting {
		h1, m1 := schedule.CacheStats()
		r.misses += m1 - m0
		r.lookups += h1 - h0 + m1 - m0
	}
	var results map[search.Family][]search.Best
	tr.timed("search.sweep", i, root, func() { results, err = sc.sweep(ctx, q, 0, nil) })
	if err != nil {
		return err
	}

	// service: the whole in-process search, then the same over loopback
	// HTTP, then a repeat served from the result cache.
	var resp service.SearchResponse
	tr.timed("service.search", i, root, func() { resp, err = r.plain.Search(ctx, q) })
	if err != nil {
		return fmt.Errorf("service.Search: %w", err)
	}
	var rep reply
	req := searchReq(classMiss, q)
	tr.timed("service.http_search", i, root, func() { rep, err = post(ctx, r.hc, r.plainTS.URL, req) })
	if err == nil && !rep.ok() {
		err = fmt.Errorf("status %d", rep.status)
	}
	if err != nil {
		return fmt.Errorf("loopback search: %w", err)
	}
	if _, err := r.cached.Search(ctx, q); err != nil {
		return err
	}
	tr.timed("service.hit", i, root, func() { _, err = r.cached.Search(ctx, q) })
	if err != nil {
		return err
	}
	tr.timed("service.hit_http", i, root, func() { rep, err = post(ctx, r.hc, r.cacheTS.URL, req) })
	if err == nil && !rep.ok() {
		err = fmt.Errorf("status %d", rep.status)
	}
	if err != nil {
		return fmt.Errorf("loopback hit: %w", err)
	}

	// Per group: enumeration, then the pricing and memory layers on a
	// sample of the candidates.
	opt := search.Options{MaxMicroBatch: q.MaxMicroBatch, Params: sc.params}
	for _, f := range sc.families {
		for _, b := range q.Batches {
			var plans []core.Plan
			tr.timed("search.enumerate", i, root, func() { plans = search.Enumerate(ctx, sc.cluster, sc.model, f, b, opt) })
			r.price(i, root, sc, plans)
		}
	}

	// Winners: simulate them (unless the workload brings its own plans),
	// journal them as the service does, and store the response record.
	sims := in.sims
	for _, f := range sc.families {
		for _, best := range results[f] {
			if in.sims == nil {
				sims = append(sims, service.SimulateRequest{Model: q.Model, Cluster: q.Cluster, Plan: best.Plan, CostModel: q.CostModel})
			}
			blob, err := json.Marshal(struct {
				Key  search.GroupKey `json:"key"`
				Best search.Best     `json:"best"`
			}{search.GroupKey{Family: f.Info().Key, Batch: best.Plan.BatchSize()}, best})
			if err != nil {
				return err
			}
			tr.timed("store.journal_append", i, root, func() { err = r.jr.Append(req.key(), blob) })
			if err != nil {
				return err
			}
		}
	}
	for _, s := range sims {
		if err := r.simulate(ctx, i, root, sc, s); err != nil {
			return err
		}
	}
	blob, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	tr.timed("store.put", i, root, func() { err = r.st.Put(req.key(), blob) })
	if err != nil {
		return err
	}
	tr.timed("store.get", i, root, func() { _, _, err = r.st.Get(req.key()) })
	return err
}

// price times the analytic bounds, the precheck, the memory estimate and
// cold schedule generation on evenly spaced candidates of one group, with
// one replay cache per group as the search uses.
func (r *tracedRun) price(i, root int, sc scenario, plans []core.Plan) {
	tr := r.tr
	stride := max(1, len(plans)/samplePerGroup)
	rc := schedule.NewReplayCache()
	for j := 0; j < len(plans); j += stride {
		p := plans[j]
		tr.timed("analytic.floor", i, root, func() { analytic.Floor(sc.cluster, sc.model, p, sc.params) })
		tr.timed("analytic.replay", i, root, func() { analytic.LowerBound(sc.cluster, sc.model, p, sc.params) })
		tr.timed("analytic.replay_cached", i, root, func() { analytic.LowerBoundCached(sc.cluster, sc.model, p, sc.params, rc) })
		tr.timed("engine.precheck", i, root, func() { _ = engine.Precheck(sc.cluster, sc.model, p, engine.Options{Params: sc.params}) })
		tr.timed("memsim.estimate", i, root, func() { memsim.Estimate(sc.model, p) })
		tr.timed("memsim.cached", i, root, func() { memsim.CachedEstimate(sc.model, p) })
		if k := schedule.KeyOf(p); !r.seenKeys[k] {
			r.seenKeys[k] = true
			tr.timed("schedule.generate", i, root, func() {
				if s, err := schedule.Generate(p); err == nil {
					_ = schedule.Check(s)
				}
			})
		}
	}
}

// simulate times one plan through the engine, the cost models and the
// in-process service.
func (r *tracedRun) simulate(ctx context.Context, i, root int, sc scenario, s service.SimulateRequest) error {
	tr := r.tr
	var err error
	tr.timed("engine.simulate", i, root, func() { _, err = engine.SimulateOpts(sc.cluster, sc.model, s.Plan, engine.Options{Params: sc.params}) })
	if err != nil {
		return err
	}
	for _, cm := range r.derive {
		par := *sc.params
		par.Model = cm
		tr.timed("cost."+cm.Name()+".derive", i, root, func() { cost.Derive(sc.cluster, sc.model, s.Plan, par) })
	}
	tr.timed("service.simulate", i, root, func() { _, err = r.plain.Simulate(ctx, s) })
	return err
}

// timeStoreOpen times opening and indexing a populated store: the
// workload's pre-populated one on durable-repeat, otherwise the log the
// traced pass wrote for the counted inputs.
func timeStoreOpen(w *workload, dir string) (float64, error) {
	src := filepath.Join(dir, "fixed")
	if w.Store {
		src = filepath.Join(dir, "populated")
		if err := populate(context.Background(), src, w.Populate); err != nil {
			return 0, err
		}
	}
	t := time.Now()
	st, err := store.OpenOptions(filepath.Join(src, resultsLog), store.Options{Repair: true})
	if err != nil {
		return 0, err
	}
	jr, err := store.OpenJournalOptions(filepath.Join(src, journalFile), store.Options{Repair: true})
	d := time.Since(t)
	st.Close()
	if err != nil {
		return 0, err
	}
	jr.Close()
	return ms(d), nil
}

// replayCounters sends the first countInputs requests of every client, in
// client order, to an in-process handler configured like the benchmark's
// server, and reads back its cache and store counters.
func replayCounters(ctx context.Context, w *workload, dir string) (map[string]float64, error) {
	cfg := service.Config{}
	if w.Store {
		live := filepath.Join(dir, "replay")
		if err := copyDir(filepath.Join(dir, "populated"), live); err != nil {
			return nil, err
		}
		st, err := store.OpenOptions(filepath.Join(live, resultsLog), store.Options{Repair: true})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		jr, err := store.OpenJournalOptions(filepath.Join(live, journalFile), store.Options{Repair: true})
		if err != nil {
			return nil, err
		}
		defer jr.Close()
		cfg.Store, cfg.Journal = st, jr
	}
	ts := httptest.NewServer(service.Handler(service.New(cfg)))
	defer ts.Close()
	hc := newClient()
	defer hc.CloseIdleConnections()
	for pos := 0; pos < countInputs; pos++ {
		for _, s := range w.Streams {
			if r, err := post(ctx, hc, ts.URL, s[pos]); err != nil || !r.ok() {
				return nil, fmt.Errorf("counter replay: %v (status %d)", err, r.status)
			}
		}
	}
	got, err := scrapeMetrics(ctx, hc, ts.URL, "bfpp_search_cache_hits_total", "bfpp_store_hits_total")
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"service.cache_hits": got["bfpp_search_cache_hits_total"],
		"service.store_hits": got["bfpp_store_hits_total"],
	}, nil
}

// layerMetrics maps span aggregates onto the per-layer metric names.
func layerMetrics(t map[string]layerTotal) map[string]float64 {
	mean := func(name string) float64 { return t[name].MeanUS }
	m := map[string]float64{
		"search.sweep_ms":           mean("search.sweep") / 1000,
		"search.sweep_w1_ms":        mean("search.sweep_w1") / 1000,
		"search.enumerate_us":       mean("search.enumerate"),
		"analytic.floor_us":         mean("analytic.floor"),
		"analytic.replay_us":        mean("analytic.replay"),
		"analytic.replay_cached_us": mean("analytic.replay_cached"),
		"engine.precheck_us":        mean("engine.precheck"),
		"engine.simulate_us":        mean("engine.simulate"),
		"cost.paper.derive_us":      mean("cost.paper.derive"),
		"cost.contended.derive_us":  mean("cost.contended.derive"),
		"schedule.generate_us":      mean("schedule.generate"),
		"memsim.estimate_us":        mean("memsim.estimate"),
		"memsim.cached_us":          mean("memsim.cached"),
		"service.search_ms":         mean("service.search") / 1000,
		"service.hit_us":            mean("service.hit"),
		"service.hit_http_us":       mean("service.hit_http"),
		"service.simulate_us":       mean("service.simulate"),
		"store.put_us":              mean("store.put"),
		"store.get_us":              mean("store.get"),
		"store.journal_append_us":   mean("store.journal_append"),
	}
	m["search.scaling"] = m["search.sweep_w1_ms"] / m["search.sweep_ms"]
	m["service.overhead_ms"] = m["service.search_ms"] - m["search.sweep_ms"]
	m["service.http_overhead_ms"] = (mean("service.http_search") - mean("service.search")) / 1000
	return m
}
