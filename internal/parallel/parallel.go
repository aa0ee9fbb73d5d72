// Package parallel provides the bounded worker-pool primitives used by the
// grid search, the figure generators and the trade-off extrapolation to fan
// independent simulations out across CPU cores.
//
// The package guarantees determinism: Map returns results in input order
// regardless of scheduling, and when several items fail it reports the error
// of the lowest-indexed item — exactly the error a serial loop would have
// hit first. Callers therefore produce byte-identical output whether they
// run with 1 worker or many.
//
// The context-aware variants (MapCtx, ForEachCtx) additionally observe
// cancellation: workers check the context between items, so an in-flight
// item finishes but no new item starts once the context is done, the pool
// drains promptly and the call returns ctx.Err(). Cancellation takes
// precedence over item errors (which are timing-dependent once the pool
// stops draining the work list); on the uncancelled path the lowest-index
// rule applies unchanged, so results remain deterministic.
//
// # Worker counts
//
// Callers pass an explicit worker count; 0 resolves to
// runtime.GOMAXPROCS(0). There is deliberately no process-wide override:
// concurrent callers (e.g. several server requests) would race on it, each
// clobbering the others' budgets. Worker counts are threaded through the
// callers' options instead (search.Options.Workers, figures.Config.Workers,
// tradeoff.Curve's workers argument, the service requests' Workers field).
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"bfpp/internal/fault"
)

// DefaultWorkers returns the worker count used when a caller passes 0:
// runtime.GOMAXPROCS(0).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Resolve maps a caller-supplied worker count to an effective one:
// n > 0 is used as-is, anything else resolves to DefaultWorkers().
func Resolve(n int) int {
	if n > 0 {
		return n
	}
	return DefaultWorkers()
}

// Map applies fn to every item on a bounded worker pool and returns the
// results in input order. workers <= 0 resolves to DefaultWorkers(); with
// one worker (or one item) it degenerates to a plain serial loop.
//
// All items are evaluated even when some fail, and the returned error is
// the one attached to the lowest index, so error reporting is independent
// of goroutine scheduling.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	//lint:allow ctxfirst Map is the documented context-free compat wrapper; cancellable callers use MapCtx
	return MapCtx(context.Background(), workers, items, fn)
}

// MapCtx is Map under a context: workers observe ctx between items (an
// in-flight fn call completes; no new item starts once ctx is done), the
// pool drains promptly, and the call reports ctx.Err(). Cancellation takes
// precedence over item errors; without cancellation the result and the
// lowest-index error rule are exactly Map's.
func MapCtx[T, R any](ctx context.Context, workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, ctx.Err()
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	out := make([]R, n)
	// The context may carry a fault injector (the chaos layer's PoolItem
	// point: a straggling worker). The nil check is the only cost when off.
	inj := fault.From(ctx)
	if workers <= 1 {
		// Same contract as the concurrent path: every item is evaluated
		// and the lowest-indexed error wins, unless the context cancels
		// the loop first.
		var firstErr error
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := injectItemStall(ctx, inj, i); err != nil {
				return nil, err
			}
			r, err := fn(i, item)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			out[i] = r
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if firstErr != nil {
			return nil, firstErr
		}
		return out, nil
	}
	errs := make([]error, n)
	done := ctx.Done()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if injectItemStall(ctx, inj, i) != nil {
					return // ctx cancelled mid-stall; Wait reports ctx.Err()
				}
				r, err := fn(i, items[i])
				if err != nil {
					errs[i] = err
					continue
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// injectItemStall sleeps (cancellably) when the injector delays this item.
// Stalls never change results — only timing — so the pool's determinism
// contract survives any fault schedule.
func injectItemStall(ctx context.Context, inj fault.Injector, i int) error {
	if inj == nil {
		return nil
	}
	if f, ok := inj.At(fault.PoolItem, i); ok && f.Kind == fault.Delay {
		return fault.SleepCtx(ctx, f.Sleep)
	}
	return nil
}

// ForEach is Map for side-effecting functions with no result value.
func ForEach[T any](workers int, items []T, fn func(i int, item T) error) error {
	//lint:allow ctxfirst ForEach is the documented context-free compat wrapper; cancellable callers use ForEachCtx
	return ForEachCtx(context.Background(), workers, items, fn)
}

// ForEachCtx is MapCtx for side-effecting functions with no result value.
func ForEachCtx[T any](ctx context.Context, workers int, items []T, fn func(i int, item T) error) error {
	_, err := MapCtx(ctx, workers, items, func(i int, item T) (struct{}, error) {
		return struct{}{}, fn(i, item)
	})
	return err
}
