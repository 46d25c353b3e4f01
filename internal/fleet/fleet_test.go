package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapReturnsResultsInIndexOrder(t *testing.T) {
	got, err := Map(100, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatalf("Map failed: %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d results, want 100", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d is %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(0, 4, func(i int) (int, error) { return i, nil })
	if err != nil || got != nil {
		t.Fatalf("Map(0) = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestMapMoreJobsThanWorkers(t *testing.T) {
	// Far more jobs than workers, with a shared counter touched from every
	// job; meaningful mostly under -race.
	var ran atomic.Int64
	got, err := Map(500, 3, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if err != nil {
		t.Fatalf("Map failed: %v", err)
	}
	if ran.Load() != 500 || len(got) != 500 {
		t.Fatalf("ran %d jobs, returned %d results, want 500 each", ran.Load(), len(got))
	}
}

func TestMapWorkersClampedToJobs(t *testing.T) {
	// More workers than jobs must not deadlock or run anything twice.
	var ran atomic.Int64
	if _, err := Map(2, 64, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	}); err != nil {
		t.Fatalf("Map failed: %v", err)
	}
	if ran.Load() != 2 {
		t.Fatalf("ran %d jobs, want 2", ran.Load())
	}
}

func TestMapDefaultWorkers(t *testing.T) {
	// workers <= 0 means GOMAXPROCS; just verify it completes correctly.
	got, err := Map(10, 0, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("Map failed: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results, want 10", len(got))
	}
	_ = runtime.GOMAXPROCS(0)
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	// Several jobs fail; the reported error must be the lowest index's,
	// matching what a serial loop would have returned first.
	wantErr := errors.New("boom 7")
	_, err := Map(64, 8, func(i int) (int, error) {
		switch i {
		case 7:
			return 0, wantErr
		case 23, 41:
			return 0, fmt.Errorf("boom %d", i)
		}
		return i, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Map error = %v, want the index-7 error", err)
	}
}

func TestMapErrorStopsLaterJobs(t *testing.T) {
	// After an early failure, far-later indices must not start. With one
	// worker the claim order is strictly sequential, so nothing past the
	// failing index may run.
	var ran atomic.Int64
	_, err := Map(100, 1, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, errors.New("stop here")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("Map did not report the error")
	}
	if got := ran.Load(); got > 5 {
		t.Fatalf("%d jobs ran after an index-3 failure with 1 worker, want <= 5", got)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("worker panic was swallowed")
		}
		msg, ok := v.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", v)
		}
		if !strings.Contains(msg, "job 5 panicked: kaboom") {
			t.Fatalf("panic message %q does not name job 5", msg)
		}
		if !strings.Contains(msg, "worker stack:") {
			t.Fatalf("panic message %q is missing the worker stack", msg)
		}
	}()
	Map(16, 4, func(i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
}

// goroutineID names the calling goroutine by the header line of its stack.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

func TestEachEmitsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		caller := goroutineID()
		var got []int
		err := Each(100, workers, func(i int) (int, error) { return i * i, nil }, func(i, v int) error {
			if v != i*i {
				t.Errorf("workers=%d: index %d emitted %d, want %d", workers, i, v, i*i)
			}
			if id := goroutineID(); id != caller {
				t.Errorf("workers=%d: index %d emitted on goroutine %s, caller is %s", workers, i, id, caller)
			}
			got = append(got, i)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results emitted, want 100", workers, len(got))
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: emission %d carried index %d", workers, i, idx)
			}
		}
	}
}

// TestEachOneWorkerRunsInline: the serial setting starts no goroutine, so
// a run's panics, profiles and stack depth are those of a plain loop.
func TestEachOneWorkerRunsInline(t *testing.T) {
	caller := goroutineID()
	err := Each(10, 1, func(i int) (int, error) {
		if id := goroutineID(); id != caller {
			t.Errorf("job %d ran on goroutine %s, caller is %s", i, id, caller)
		}
		return i, nil
	}, func(int, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestEachStreams: a result is emitted while higher jobs are still
// running — here the last job cannot finish until index 0 has been
// emitted, which a collect-then-emit pool would never do.
func TestEachStreams(t *testing.T) {
	const n = 4
	released := make(chan struct{})
	err := Each(n, 2, func(i int) (int, error) {
		if i == n-1 {
			select {
			case <-released:
			case <-time.After(10 * time.Second):
				return 0, errors.New("index 0 was not emitted while the last job ran")
			}
		}
		return i, nil
	}, func(i, _ int) error {
		if i == 0 {
			close(released)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEachBoundsRunAhead: while index 0 is unfinished, the jobs claimed
// beyond it never exceed the window — the reorder buffer is bounded.
func TestEachBoundsRunAhead(t *testing.T) {
	const workers, n = 2, 1000
	var started atomic.Int64
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Each(n, workers, func(i int) (int, error) {
			started.Add(1)
			if i == 0 {
				<-gate
			}
			return i, nil
		}, func(int, int) error { return nil })
	}()
	// The other worker runs ahead until the window stops it; give it time
	// to overshoot if it were going to.
	for deadline := time.Now().Add(5 * time.Second); started.Load() < 8*workers && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := started.Load(); got != 8*workers {
		t.Errorf("%d jobs started while index 0 was unfinished, want the window of %d", got, 8*workers)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := started.Load(); got != n {
		t.Fatalf("%d jobs ran, want %d", got, n)
	}
}

// TestEachErrorAfterLowerIndices: like a serial loop, every index below
// the failure is emitted before the error is returned, nothing at or above
// it is, and the lowest failing index wins.
func TestEachErrorAfterLowerIndices(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var emitted []int
		err := Each(64, workers, func(i int) (int, error) {
			if i == 5 || i == 9 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		}, func(i, _ int) error {
			emitted = append(emitted, i)
			return nil
		})
		if err == nil || err.Error() != "boom 5" {
			t.Fatalf("workers=%d: error %v, want boom 5", workers, err)
		}
		if fmt.Sprint(emitted) != "[0 1 2 3 4]" {
			t.Fatalf("workers=%d: emitted %v before the index-5 failure, want [0 1 2 3 4]", workers, emitted)
		}
	}
}

func TestEachEmitErrorStops(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		wantErr := errors.New("merge failed")
		err := Each(10_000, workers, func(i int) (int, error) {
			ran.Add(1)
			return i, nil
		}, func(i, _ int) error {
			if i == 3 {
				return wantErr
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: error %v, want the emit error", workers, err)
		}
		// Nothing beyond the window past the failing emission may have started.
		if got := ran.Load(); got > 4+8*int64(workers) {
			t.Fatalf("workers=%d: %d jobs ran after emit failed at index 3", workers, got)
		}
	}
}

func TestEachPanicPropagates(t *testing.T) {
	var emitted []int
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "job 5 panicked: kaboom") || !strings.Contains(msg, "worker stack:") {
			t.Fatalf("panic %q does not name job 5 with the worker stack", msg)
		}
		if fmt.Sprint(emitted) != "[0 1 2 3 4]" {
			t.Fatalf("emitted %v before the index-5 panic, want [0 1 2 3 4]", emitted)
		}
	}()
	Each(16, 4, func(i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	}, func(i, _ int) error {
		emitted = append(emitted, i)
		return nil
	})
}
