package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"bfpp/internal/service"
)

func mustGenerate(t *testing.T, name string, seed uint64) *workload {
	t.Helper()
	w, err := generate(name, seed, 2)
	if err != nil {
		t.Fatalf("generate(%s, %d): %v", name, seed, err)
	}
	return w
}

func encode(t *testing.T, w *workload) []byte {
	t.Helper()
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The generators are pure functions of the seed: the same seed gives
// byte-identical request streams, another seed different ones.
func TestSeedDeterminesStreams(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := encode(t, mustGenerate(t, name, 7)), encode(t, mustGenerate(t, name, 7))
			if !bytes.Equal(a, b) {
				t.Fatal("same seed gave different streams")
			}
			c := encode(t, mustGenerate(t, name, 8))
			if bytes.Equal(a, c) {
				t.Fatal("seeds 7 and 8 gave identical streams")
			}
		})
	}
}

// The warm-up list is fixed: it does not depend on the seed.
func TestWarmupIndependentOfSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := json.Marshal(mustGenerate(t, name, 1).Warmup)
		b, _ := json.Marshal(mustGenerate(t, name, 99).Warmup)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: warm-up list changes with the seed", name)
		}
	}
}

// Misses are distinct across all clients and never repeat a warm-up or
// pre-populated request; every hit repeats a request the same client sent
// earlier or one already in the store, so hit/miss classes are exact.
func TestClassesAreExact(t *testing.T) {
	for _, name := range []string{planSweep, durableRepeat} {
		w := mustGenerate(t, name, 3)
		seen := map[string]bool{}
		for _, q := range w.Warmup {
			seen[q.key()] = true
		}
		populated := map[string]bool{}
		for _, p := range w.Populate {
			k := searchReq(classMiss, p).key()
			populated[k], seen[k] = true, true
		}
		hits := 0
		for c, s := range w.Streams {
			own := map[string]bool{}
			for i, q := range s {
				k := q.key()
				switch q.Class {
				case classMiss:
					if seen[k] {
						t.Fatalf("%s client %d request %d: miss repeats an earlier request", name, c, i)
					}
					seen[k], own[k] = true, true
				case classHit:
					hits++
					if !own[k] && !populated[k] {
						t.Fatalf("%s client %d request %d: hit repeats nothing the server has", name, c, i)
					}
				default:
					t.Fatalf("%s: unexpected class %q", name, q.Class)
				}
			}
		}
		if name == durableRepeat && hits == 0 {
			t.Fatal("durable-repeat has no hits")
		}
	}
}

// Every generated request resolves through the registries, and a prefix of
// every stream plus the warm-up and populate lists is accepted (200, not
// partial) by an in-process service.Handler.
func TestRequestsAccepted(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		w := mustGenerate(t, name, 5)
		resolved := map[string]bool{}
		for _, s := range w.Streams {
			for _, q := range s {
				k := q.key()
				if resolved[k] {
					continue
				}
				resolved[k] = true
				var err error
				if q.Search != nil {
					_, err = resolve(*q.Search)
				} else {
					_, err = resolve(service.SearchRequest{Model: q.Sim.Model, Cluster: q.Sim.Cluster, CostModel: q.Sim.CostModel})
				}
				if err != nil {
					t.Fatalf("%s: %s does not resolve: %v", name, q.body(), err)
				}
			}
		}
		ts := httptest.NewServer(service.Handler(service.New(service.Config{})))
		hc := newClient()
		send := append([]request(nil), w.Warmup...)
		for _, p := range w.Populate {
			send = append(send, searchReq(classMiss, p))
		}
		for _, s := range w.Streams {
			send = append(send, s[:4]...)
		}
		for _, q := range send {
			r, err := post(ctx, hc, ts.URL, q)
			if err != nil || !r.ok() {
				t.Errorf("%s: %s %s: status %d, err %v", name, q.path(), q.body(), r.status, err)
			}
		}
		hc.CloseIdleConnections()
		ts.Close()
	}
}

// The verifier accepts the handler's own answers and rejects a tampered
// table, a wrong cached flag and a tampered simulation result.
func TestVerifyDetectsMismatch(t *testing.T) {
	ctx := context.Background()
	ts := httptest.NewServer(service.Handler(service.New(service.Config{})))
	defer ts.Close()
	hc := newClient()
	defer hc.CloseIdleConnections()
	sim := mustGenerate(t, whatIfSim, 2)
	sweep := mustGenerate(t, planSweep, 2)
	var answers []answer
	for _, q := range []request{sweep.Streams[0][0], sim.Streams[0][0]} {
		r, err := post(ctx, hc, ts.URL, q)
		if err != nil || !r.ok() {
			t.Fatalf("%s: status %d, err %v", q.path(), r.status, err)
		}
		answers = append(answers, r.answer)
	}
	if bad, err := verify(ctx, answers, sim.Sims, 2); err != nil || bad != 0 {
		t.Fatalf("genuine answers: %d mismatches, err %v", bad, err)
	}
	table := answers[0]
	table.table += " "
	cached := answers[0]
	cached.cached = true
	result := answers[1]
	result.result = bytes.Replace(result.result, []byte(`"BatchTime":`), []byte(`"BatchTime":1`), 1)
	bad, err := verify(ctx, []answer{table, cached, result}, sim.Sims, 2)
	if err != nil || bad != 3 {
		t.Fatalf("tampered answers: %d mismatches (want 3), err %v", bad, err)
	}
}

// A drawer hands out every (batch subset, option) pair of its template
// exactly once, keeping every option's count within one group of the
// others at each point, and then reports exhaustion; plan-sweep's stream
// stops at a full round, so every template has the same share of it.
func TestDrawerExhaustsExactly(t *testing.T) {
	nopts := len(maxMicroBatchs) * len(costModels)
	for _, tm := range append(append([]template(nil), sweepTemplates...), durableTemplates...) {
		d := newDrawer(tm, newRNG(4, 1))
		subsets := 0
		for _, g := range d.groups {
			subsets += len(g)
		}
		got := map[string]bool{}
		perOpt := map[string]int{}
		for {
			q, ok := d.next()
			if !ok {
				break
			}
			perOpt[fmt.Sprint(q.MaxMicroBatch, q.CostModel)]++
			lo, hi := len(got)+1, 0
			for _, n := range perOpt {
				lo, hi = min(lo, n), max(hi, n)
			}
			if len(perOpt) < nopts {
				lo = 0
			}
			if hi-lo > 2 {
				t.Fatalf("%v: after %d requests the options are drawn %d to %d times", tm, len(got)+1, lo, hi)
			}
			k := searchReq(classMiss, q).key()
			if got[k] {
				t.Fatalf("%v: %s handed out twice", tm, k)
			}
			if len(q.Batches) >= len(tm.grid) {
				t.Fatalf("%v: %s takes the whole grid, the warm-up request", tm, k)
			}
			got[k] = true
		}
		if len(got) != subsets*nopts {
			t.Errorf("%v: %d requests, want %d subsets x %d options", tm, len(got), subsets, nopts)
		}
	}
	s := mustGenerate(t, planSweep, 4).Streams[0]
	per := map[string]int{}
	for _, q := range s {
		per[q.Search.Model+"/"+q.Search.Cluster+"/"+q.Search.Families[0]]++
	}
	if len(per) != len(sweepTemplates) || len(s)%len(sweepTemplates) != 0 {
		t.Fatalf("plan-sweep stream of %d requests covers %d templates", len(s), len(per))
	}
	for k, n := range per {
		if n != len(s)/len(sweepTemplates) {
			t.Errorf("template %s has %d requests, want %d", k, n, len(s)/len(sweepTemplates))
		}
	}
}
