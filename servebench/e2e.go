package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"bfpp/internal/service"
	"bfpp/internal/store"
)

// config is a run's settings, from the command line.
type config struct {
	Workload   string
	Seed       uint64
	Seconds    int
	Server     string // bfpp-serve binary
	Work       string // scratch directory for stores
	GOMAXPROCS int    // of the server
}

// setups is how many times a run times set-up; setup_s is a median of
// them (see setupSeconds).
const setups = 7

// On a shared virtual machine the hypervisor sometimes runs other guests
// on this one's CPUs ("steal"), in bursts of a second to minutes; a
// request then takes up to twice as long for reasons outside the program.
// The window is therefore cut into slices, the host's steal share is read
// per slice, and the timed metrics use the quiet slices (see quiet). Set-up
// repetitions are screened the same way.
const (
	slice      = time.Second
	stealLimit = 0.02 // share of host CPU time
)

// sample is one measured request.
type sample struct {
	class string
	dur   time.Duration
	ok    bool
	slice int // the slice the reply arrived in
}

// setupRun is one timed set-up and the host's steal share during it.
type setupRun struct {
	Seconds float64 `json:"s"`
	Steal   float64 `json:"steal"`
}

// stealSlice is one slice of the measured window.
type stealSlice struct {
	Dur   time.Duration `json:"dur_ns"`
	Steal float64       `json:"steal"`
}

// e2eResult is what a tracing-off run measured.
type e2eResult struct {
	setups    []setupRun
	samples   []sample
	answers   []answer
	slices    []stealSlice
	peakRSSMB float64
	diskMB    float64
	counters  map[string]float64
	mismatch  int
	serverCPU float64 // server CPU seconds during the window
}

// quiet reports which slices the timed metrics use: every slice with at
// most stealLimit steal, and then the least stolen of the others until
// the chosen slices cover a third of the window and hold minSamples
// successful replies of every request class (or all of a class's).
func (e *e2eResult) quiet() []bool {
	perSlice := make([]map[string]int, len(e.slices))
	total := map[string]int{}
	for _, s := range e.samples {
		if s.ok && s.slice < len(e.slices) {
			if perSlice[s.slice] == nil {
				perSlice[s.slice] = map[string]int{}
			}
			perSlice[s.slice][s.class]++
			total[s.class]++
		}
	}
	order := make([]int, len(e.slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return e.slices[order[a]].Steal < e.slices[order[b]].Steal })
	q := make([]bool, len(e.slices))
	have := map[string]int{}
	enough := func(chosen int) bool {
		if 3*chosen < len(e.slices) {
			return false
		}
		for c, n := range total {
			if have[c] < min(n, minSamples) {
				return false
			}
		}
		return true
	}
	for k, i := range order {
		if e.slices[i].Steal > stealLimit && enough(k) {
			break
		}
		q[i] = true
		for c, n := range perSlice[i] {
			have[c] += n
		}
	}
	return q
}

// setupSeconds is the median set-up time over the quiet repetitions, or
// over the three least stolen when fewer were quiet.
func (e *e2eResult) setupSeconds() float64 {
	runs := append([]setupRun(nil), e.setups...)
	sort.SliceStable(runs, func(a, b int) bool { return runs[a].Steal < runs[b].Steal })
	var secs []float64
	for i, r := range runs {
		if i >= 3 && r.Steal > stealLimit {
			break
		}
		secs = append(secs, r.Seconds)
	}
	return median(secs)
}

// Store file names inside a -store directory, as bfpp-serve lays them out.
const (
	resultsLog  = "results.log"
	journalFile = "sweeps.journal"
)

// runE2E launches bfpp-serve, times set-up, drives the closed-loop clients
// for the configured seconds, then stops the server and verifies every
// answer outside the timed window.
func runE2E(ctx context.Context, cfg config, w *workload) (*e2eResult, error) {
	dir := filepath.Join(cfg.Work, fmt.Sprintf("%s-%d", w.Name, w.Seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pristine, live := filepath.Join(dir, "populated"), filepath.Join(dir, "store")
	if w.Store {
		if err := populate(ctx, pristine, w.Populate); err != nil {
			return nil, fmt.Errorf("populating the store: %w", err)
		}
	}
	res := &e2eResult{}
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	warm := newClient()
	for rep := 0; rep < setups; rep++ {
		storeDir := ""
		if w.Store {
			// Every repetition starts from the same populated store: the
			// previous warm-up's writes are discarded.
			if err := os.RemoveAll(live); err != nil {
				return nil, err
			}
			if err := copyDir(pristine, live); err != nil {
				return nil, err
			}
			storeDir = live
		}
		steal0, total0 := hostSteal()
		t0 := time.Now()
		var err error
		if srv, err = startServer(cfg.Server, cfg.GOMAXPROCS, storeDir); err != nil {
			return nil, err
		}
		for _, q := range w.Warmup {
			r, err := post(ctx, warm, srv.base, q)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if !r.ok() {
				return nil, fmt.Errorf("warm-up %s %s: status %d", q.path(), q.body(), r.status)
			}
		}
		d := time.Since(t0)
		steal1, total1 := hostSteal()
		res.setups = append(res.setups, setupRun{d.Seconds(), (steal1 - steal0) / max(1, total1-total0)})
		if rep < setups-1 {
			srv.stop()
			srv = nil
		}
	}
	warm.CloseIdleConnections()

	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if err := drive(ctx, srv.base, w, time.Duration(cfg.Seconds)*time.Second, res); err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.serverCPU = cpu1 - cpu0
	if res.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	c := newClient()
	res.counters, err = scrapeMetrics(ctx, c, srv.base, "bfpp_search_cache_hits_total",
		"bfpp_store_hits_total", "bfpp_jobs_shed_total")
	c.CloseIdleConnections()
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	srv.stop()
	srv = nil
	if w.Store {
		if res.diskMB, err = dirMB(live); err != nil {
			return nil, err
		}
	}
	res.mismatch, err = verify(ctx, res.answers, w.Sims, runtime.NumCPU())
	return res, err
}

// drive runs the closed loop: each client sends its next request only
// after the previous reply arrived, until the window closes. A failed
// request (transport error, non-200 including 429, partial) is counted,
// never retried. Alongside, it records the host's steal share per slice.
func drive(ctx context.Context, base string, w *workload, window time.Duration, res *e2eResult) error {
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		errOnce error
	)
	start := time.Now()
	deadline := start.Add(window)
	stop := make(chan struct{})
	sampled := make(chan []stealSlice)
	go sampleSteal(start, stop, sampled)
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(stream []request) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			var samples []sample
			var answers []answer
			i := 0
			for ; i < len(stream) && time.Now().Before(deadline); i++ {
				q := stream[i]
				t := time.Now()
				r, err := post(ctx, hc, base, q)
				end := time.Now()
				ok := err == nil && r.ok()
				samples = append(samples, sample{class: q.Class, dur: end.Sub(t), ok: ok, slice: int(end.Sub(start) / slice)})
				if ok {
					answers = append(answers, r.answer)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if i == len(stream) && errOnce == nil {
				errOnce = fmt.Errorf("%s: a client exhausted its %d-request stream before the window closed", w.Name, len(stream))
			}
			res.samples = append(res.samples, samples...)
			res.answers = append(res.answers, answers...)
		}(w.Streams[c])
	}
	wg.Wait()
	close(stop)
	res.slices = <-sampled
	return errOnce
}

// sampleSteal reads the host's steal share at every slice boundary from
// start until stop is closed, closing the last (partial) slice then, and
// sends the slices on out.
func sampleSteal(start time.Time, stop <-chan struct{}, out chan<- []stealSlice) {
	var slices []stealSlice
	s0, t0 := hostSteal()
	last := start
	for i := 1; ; i++ {
		timer := time.NewTimer(time.Until(start.Add(time.Duration(i) * slice)))
		done := false
		select {
		case <-timer.C:
		case <-stop:
			timer.Stop()
			done = true
		}
		now := time.Now()
		s1, t1 := hostSteal()
		slices = append(slices, stealSlice{Dur: now.Sub(last), Steal: (s1 - s0) / max(1, t1-t0)})
		s0, t0, last = s1, t1, now
		if done {
			out <- slices
			return
		}
	}
}

// populate writes the workload's pre-populated requests into a fresh store
// directory through an in-process service with the server's store layout
// and fsync on, so the records are byte-for-byte what bfpp-serve writes.
func populate(ctx context.Context, dir string, reqs []service.SearchRequest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	opts := store.Options{Repair: true}
	st, err := store.OpenOptions(filepath.Join(dir, resultsLog), opts)
	if err != nil {
		return err
	}
	defer st.Close()
	jr, err := store.OpenJournalOptions(filepath.Join(dir, journalFile), opts)
	if err != nil {
		return err
	}
	defer jr.Close()
	svc := service.New(service.Config{Store: st, Journal: jr})
	for _, q := range reqs {
		if _, err := svc.Search(ctx, q); err != nil {
			return err
		}
	}
	if err := jr.Close(); err != nil {
		return err
	}
	return st.Close()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirMB is the total size of the regular files under dir, in MiB.
func dirMB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return float64(n) / (1 << 20), err
}
