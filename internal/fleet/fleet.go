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
// on its own private des.Simulator, and Each's only outputs — the emitted
// results, the returned error, and a re-raised panic — are selected by
// job index, so callers observe the exact sequence a serial loop would
// have produced.
//
// One convention for workers wherever a count reaches this package: <= 0
// means GOMAXPROCS, 1 runs every job inline on the calling goroutine.
package fleet

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// slot is one finished job waiting for its turn to be emitted.
type slot[T any] struct {
	done  bool
	val   T
	err   error
	panic any    // non-nil when the job panicked,
	stack []byte // with the worker's stack
}

// Each runs fn(0) … fn(n-1) on up to workers goroutines and hands every
// result to emit on the calling goroutine, in index order, as soon as it
// and all lower indices are done. With one worker (or one job) everything
// runs inline on the caller and no goroutine is started. No job runs more
// than 8×workers indices ahead of the next one to emit, so the results
// waiting for a slow low index stay bounded.
//
// Error semantics mirror a serial loop: the returned error is the one
// from the lowest failing index — a job's or emit's — every lower index
// has been emitted before it is returned, and no job with a higher index
// than a known failure is started (jobs already in flight run to
// completion). A panicking job is re-raised on the calling goroutine,
// again lowest index first, with the worker's stack attached.
func Each[T any](n, workers int, fn func(i int) (T, error), emit func(i int, v T) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err == nil {
				err = emit(i, v)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Indices are claimed in increasing order, at most window ahead of
	// emitted, so index i owns ring slot i%window from claim to emission.
	// stop is the lowest index known to have failed: every job below it
	// has already been claimed, so never starting the indices above it
	// cannot hide an earlier error.
	window := 8 * workers
	var (
		mu            sync.Mutex
		ready         = sync.NewCond(&mu) // the caller waits for ring[emitted]
		room          = sync.NewCond(&mu) // workers wait for the window to advance
		ring          = make([]slot[T], window)
		next, emitted int
		stop          = n
		wg            sync.WaitGroup
	)
	// However the loop below ends — completion, an error, a panic — no
	// further job starts and no worker outlives the call.
	defer func() {
		mu.Lock()
		stop = 0
		mu.Unlock()
		room.Broadcast()
		wg.Wait()
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow dettaint worker-pool island (DESIGN.md §8): each job is a pure function of its seed on a private Simulator, and results merge by job index, so scheduler order cannot reach any aggregate
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for {
				for next < stop && next >= emitted+window {
					room.Wait()
				}
				if next >= stop {
					return
				}
				i := next
				next++
				mu.Unlock()
				s := slot[T]{done: true}
				func() {
					defer func() {
						if s.panic = recover(); s.panic != nil {
							s.stack = debug.Stack()
						}
					}()
					s.val, s.err = fn(i)
				}()
				mu.Lock()
				if (s.err != nil || s.panic != nil) && i < stop {
					stop = i
				}
				ring[i%window] = s
				if i == emitted {
					ready.Signal()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		mu.Lock()
		emitted = i
		room.Signal()
		for !ring[i%window].done {
			ready.Wait()
		}
		s := ring[i%window]
		ring[i%window] = slot[T]{}
		mu.Unlock()
		if s.panic != nil {
			panic(fmt.Sprintf("fleet: job %d panicked: %v\n\nworker stack:\n%s", i, s.panic, s.stack))
		}
		if s.err == nil {
			s.err = emit(i, s.val)
		}
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// Map is Each collecting the results into a slice in index order.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	err := Each(n, workers, fn, func(i int, v T) error {
		results[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
