package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"bfpp/internal/cli"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/search"
	"bfpp/internal/service"
)

// scenario is a search request resolved through the registries, the way
// the benchmark calls the layers in process.
type scenario struct {
	model    model.Transformer
	cluster  hw.Cluster
	families []search.Family
	params   *engine.Params
	costName string
}

func resolve(q service.SearchRequest) (scenario, error) {
	var sc scenario
	var err error
	if sc.model, err = cli.ParseModel(q.Model); err != nil {
		return sc, err
	}
	if sc.cluster, err = cli.ParseCluster(q.Cluster); err != nil {
		return sc, err
	}
	if sc.families, err = cli.ParseFamilies(strings.Join(q.Families, ",")); err != nil {
		return sc, err
	}
	cm, err := cli.ParseCostModel(q.CostModel)
	if err != nil {
		return sc, err
	}
	par := engine.Defaults()
	par.Model = cm
	sc.params = &par
	sc.costName = q.CostModel
	if sc.costName == "" {
		sc.costName = "paper"
	}
	return sc, nil
}

func (sc scenario) title() string {
	return fmt.Sprintf("Optimal configurations: %s on %s (%d GPUs)",
		sc.model.Name, sc.cluster.Name, sc.cluster.NumGPUs())
}

// sweep runs search.SweepAll for the request; an infeasible scenario gives
// the empty result the service serves as a header-only table.
func (sc scenario) sweep(ctx context.Context, q service.SearchRequest, workers int, stats *search.Stats) (map[search.Family][]search.Best, error) {
	res, err := search.SweepAll(ctx, sc.cluster, sc.model, sc.families, q.Batches,
		search.Options{MaxMicroBatch: q.MaxMicroBatch, Params: sc.params, Workers: workers, Stats: stats})
	if errors.Is(err, search.ErrInfeasible) {
		return map[search.Family][]search.Best{}, nil
	}
	return res, err
}

// expectedTable is the reference answer to a search: search.Table over an
// in-process SweepAll at one worker.
func expectedTable(ctx context.Context, q service.SearchRequest) (string, error) {
	sc, err := resolve(q)
	if err != nil {
		return "", err
	}
	res, err := sc.sweep(ctx, q, 1, nil)
	if err != nil {
		return "", err
	}
	return search.Table(sc.title(), res), nil
}

// expectedSim is the reference answer to a simulation, encoded the way
// the server encodes its result field.
func expectedSim(q service.SimulateRequest) ([]byte, error) {
	sc, err := resolve(service.SearchRequest{Model: q.Model, Cluster: q.Cluster, CostModel: q.CostModel})
	if err != nil {
		return nil, err
	}
	res, err := engine.SimulateOpts(sc.cluster, sc.model, q.Plan, engine.Options{Params: sc.params})
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// answer is what the benchmark keeps of a reply for verification.
type answer struct {
	req    request
	table  string          // /v1/search
	cached bool            // /v1/search
	result json.RawMessage // /v1/simulate
}

// verify checks every distinct answered request against its in-process
// reference, using workers goroutines, and returns the number of answers
// that mismatch. It runs outside the timed window.
func verify(ctx context.Context, answers []answer, sims []simCase, workers int) (int, error) {
	byKey := map[string][]answer{}
	var keys []string
	for _, a := range answers {
		k := a.req.key()
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], a)
	}
	want := map[string][]byte{}
	for _, sc := range sims {
		b, err := json.Marshal(sc.Want)
		if err != nil {
			return 0, err
		}
		want[request{Sim: &sc.Req}.key()] = b
	}
	var (
		mu       sync.Mutex
		bad      int
		firstErr error
		wg       sync.WaitGroup
	)
	next := make(chan string)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				n, err := checkKey(ctx, byKey[k], want[k])
				mu.Lock()
				bad += n
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return bad, firstErr
}

// checkKey verifies all answers to one request; want, when non-nil, is the
// precomputed simulation result.
func checkKey(ctx context.Context, as []answer, want []byte) (int, error) {
	q := as[0].req
	bad := 0
	if q.Sim != nil {
		if want == nil {
			var err error
			if want, err = expectedSim(*q.Sim); err != nil {
				return len(as), fmt.Errorf("reference simulation: %w", err)
			}
		}
		for _, a := range as {
			var got bytes.Buffer
			if err := json.Compact(&got, a.result); err != nil || !bytes.Equal(got.Bytes(), want) {
				bad++
			}
		}
		return bad, nil
	}
	table, err := expectedTable(ctx, *q.Search)
	if err != nil {
		return len(as), fmt.Errorf("reference sweep: %w", err)
	}
	for _, a := range as {
		if a.table != table || a.cached != (a.req.Class == classHit) {
			bad++
		}
	}
	return bad, nil
}
