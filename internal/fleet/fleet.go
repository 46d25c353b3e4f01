// Package fleet is the bounded worker pool the experiment harness fans
// out on: it runs independent jobs on up to GOMAXPROCS goroutines and
// hands the results back strictly by job index, never by completion
// order.
//
// fleet is the one deliberate goroutine island in the simulation stack,
// and therefore the one DES-adjacent package exempt from gridlint's
// dettaint pass (see DESIGN.md §8). The exemption is sound because
// the pool adds no shared state to the jobs it runs: every harness job
// is a pure function of (topology, composition, workload, seed) executing
// on its own private des.Simulator, and Map's only outputs — the result
// slice, the returned error, and a re-raised panic — are selected by
// job index, so callers observe the exact sequence a serial loop would
// have produced.
package fleet

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// jobPanic carries a panic value from a worker goroutine back to the
// caller together with the worker's stack.
type jobPanic struct {
	val   any
	stack []byte
}

// Map runs fn(0) … fn(n-1) on up to workers goroutines and returns the
// results in index order. workers <= 0 means GOMAXPROCS.
//
// Error semantics mirror a serial loop: the returned error is the one
// from the lowest failing index, and no job with a higher index than a
// known failure is started (jobs already in flight run to completion).
// A panicking job is re-raised on the calling goroutine, again lowest
// index first, with the worker's stack attached.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	panics := make([]*jobPanic, n)

	// next hands out job indices in increasing order; stop is the lowest
	// index known to have failed. Because indices are claimed in order,
	// every job below a recorded failure has already been claimed, so
	// skipping indices above stop can never hide an earlier error.
	var next atomic.Int64
	var stop atomic.Int64
	stop.Store(int64(n))

	lower := func(i int) {
		for {
			cur := stop.Load()
			if int64(i) >= cur || stop.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow dettaint worker-pool island (DESIGN.md §8): each job is a pure function of its seed on a private Simulator, and results merge by job index, so scheduler order cannot reach any aggregate
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || int64(i) > stop.Load() {
					return
				}
				func() {
					defer func() {
						if v := recover(); v != nil {
							panics[i] = &jobPanic{val: v, stack: debug.Stack()}
							lower(i)
						}
					}()
					r, err := fn(i)
					if err != nil {
						errs[i] = err
						lower(i)
						return
					}
					results[i] = r
				}()
			}
		}()
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if p := panics[i]; p != nil {
			panic(fmt.Sprintf("fleet: job %d panicked: %v\n\nworker stack:\n%s", i, p.val, p.stack))
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return results, nil
}
