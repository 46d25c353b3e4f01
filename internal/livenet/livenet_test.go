package livenet

import (
	"context"
	"sync"
	"testing"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/mutex"
	"gridmutex/internal/topology"
)

// buildLive assembles a composed deployment on a live network and returns
// the handle set. The returned cleanup closes the network.
func buildLive(t *testing.T, grid *topology.Grid, spec core.Spec) (*Handles, func()) {
	t.Helper()
	net := New(Options{Latency: func(a, b int) time.Duration { return grid.OneWay(a, b) }, Scale: 200})
	hs := NewHandles(net)
	d, err := core.BuildComposed(net, grid, spec, hs.Callbacks)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	hs.Bind(d.Apps)
	return hs, net.Close
}

// TestMutualExclusionUnderRace hammers the lock from many goroutines and
// checks that a deliberately racy critical section never interleaves.
func TestMutualExclusionUnderRace(t *testing.T) {
	grid := topology.Uniform(2, 4, time.Millisecond, 10*time.Millisecond)
	hs, cleanup := buildLive(t, grid, core.Spec{Intra: "naimi", Inter: "naimi"})
	defer cleanup()

	const iterations = 15
	var counter int // protected only by the distributed lock
	var inCS int32
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	apps := []mutex.ID{1, 2, 3, 5, 6, 7} // node 0 and 4 are coordinators
	for _, id := range apps {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := hs.Get(id)
			for i := 0; i < iterations; i++ {
				if err := h.Lock(context.Background()); err != nil {
					errs <- err
					return
				}
				if n := inCS; n != 0 {
					t.Errorf("process %d entered CS while %d other(s) inside", id, n)
				}
				inCS++
				counter++
				time.Sleep(50 * time.Microsecond)
				inCS--
				h.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if want := len(apps) * iterations; counter != want {
		t.Fatalf("counter = %d, want %d", counter, want)
	}
}

func TestAllCompositionsLive(t *testing.T) {
	for _, spec := range []core.Spec{
		{Intra: "naimi", Inter: "martin"},
		{Intra: "suzuki", Inter: "naimi"},
		{Intra: "martin", Inter: "suzuki"},
		{Intra: "ricart-agrawala", Inter: "ricart-agrawala"},
	} {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			grid := topology.Uniform(2, 3, time.Millisecond, 8*time.Millisecond)
			hs, cleanup := buildLive(t, grid, spec)
			defer cleanup()
			var wg sync.WaitGroup
			for _, id := range []mutex.ID{1, 2, 4, 5} {
				id := id
				wg.Add(1)
				go func() {
					defer wg.Done()
					h := hs.Get(id)
					for i := 0; i < 8; i++ {
						if err := h.Lock(context.Background()); err != nil {
							t.Error(err)
							return
						}
						h.Unlock()
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestLockCancellation(t *testing.T) {
	grid := topology.Uniform(2, 2, time.Millisecond, 50*time.Millisecond)
	hs, cleanup := buildLive(t, grid, core.Spec{Intra: "naimi", Inter: "naimi"})
	defer cleanup()

	a, b := hs.Get(1), hs.Get(3)
	if err := a.Lock(context.Background()); err != nil {
		t.Fatal(err)
	}
	// b's lock cannot be served while a holds it; cancel it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := b.Lock(ctx); err != context.DeadlineExceeded {
		t.Fatalf("cancelled Lock returned %v", err)
	}
	a.Unlock()
	// The background reaper releases b's eventual grant; the lock must
	// remain acquirable afterwards.
	deadline := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() {
		if err := a.Lock(context.Background()); err != nil {
			t.Error(err)
		}
		a.Unlock()
		if err := b.Lock(context.Background()); err != nil {
			t.Error(err)
		}
		b.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("lock unusable after cancellation")
	}
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	grid := topology.Uniform(2, 2, 0, 0)
	hs, cleanup := buildLive(t, grid, core.Spec{Intra: "naimi", Inter: "naimi"})
	defer cleanup()
	defer func() {
		if recover() == nil {
			t.Error("Unlock without Lock did not panic")
		}
	}()
	hs.Get(1).Unlock()
}

func TestHandlesGetUnknownPanics(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	hs := NewHandles(net)
	defer func() {
		if recover() == nil {
			t.Error("Get on unknown id did not panic")
		}
	}()
	hs.Get(99)
}

func TestBindWithoutCallbacksPanics(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	hs := NewHandles(net)
	defer func() {
		if recover() == nil {
			t.Error("Bind of unknown app did not panic")
		}
	}()
	hs.Bind([]core.App{{ID: 7}})
}

func TestCloseIsIdempotent(t *testing.T) {
	net := New(Options{})
	net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	net.Close()
	net.Close()
}

type handlerFunc func(from mutex.ID, m mutex.Message)

func (f handlerFunc) Deliver(from mutex.ID, m mutex.Message) { f(from, m) }

type testMsg struct{ seq int }

func (testMsg) Kind() string { return "test" }
func (testMsg) Size() int    { return 8 }

func TestPerLinkFIFO(t *testing.T) {
	net := New(Options{Latency: func(a, b int) time.Duration { return 200 * time.Microsecond }})
	defer net.Close()
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	const k = 100
	net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	net.RegisterAt(1, 0, handlerFunc(func(from mutex.ID, m mutex.Message) {
		mu.Lock()
		got = append(got, m.(testMsg).seq)
		if len(got) == k {
			close(done)
		}
		mu.Unlock()
	}))
	ep := net.Endpoint(0)
	for i := 0; i < k; i++ {
		ep.Send(1, testMsg{seq: i})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("messages not delivered")
	}
	for i, s := range got {
		if s != i {
			t.Fatalf("link reordered: position %d has seq %d", i, s)
		}
	}
}

func TestLocalRunsOnSerialContext(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	var order []string
	var mu sync.Mutex
	done := make(chan struct{})
	net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	net.RegisterAt(1, 0, handlerFunc(func(from mutex.ID, m mutex.Message) {
		ep := net.Endpoint(1)
		ep.Local(func() {
			mu.Lock()
			order = append(order, "local")
			mu.Unlock()
			close(done)
		})
		mu.Lock()
		order = append(order, "handler")
		mu.Unlock()
	}))
	net.Endpoint(0).Send(1, testMsg{})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("local never ran")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "handler" || order[1] != "local" {
		t.Fatalf("order = %v", order)
	}
}

func TestRegisterPanics(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	for name, f := range map[string]func(){
		"duplicate": func() { net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {})) },
		"nil":       func() { net.RegisterAt(1, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s register did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestLatencyScale checks Scale divides the modeled delay.
func TestLatencyScale(t *testing.T) {
	net := New(Options{
		Latency: func(a, b int) time.Duration { return 100 * time.Millisecond },
		Scale:   100,
	})
	defer net.Close()
	got := make(chan time.Time, 1)
	net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	net.RegisterAt(1, 0, handlerFunc(func(mutex.ID, mutex.Message) { got <- time.Now() }))
	start := time.Now()
	net.Endpoint(0).Send(1, testMsg{})
	select {
	case at := <-got:
		if d := at.Sub(start); d > 50*time.Millisecond {
			t.Fatalf("scaled delivery took %v, want ~1ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
}

// TestQueuedMessagesShareTheLatency: messages sent back to back on one link
// are in flight together, so each arrives one latency after its own send,
// not after the one before it, and the link stays FIFO.
func TestQueuedMessagesShareTheLatency(t *testing.T) {
	const n, latency = 10, 20 * time.Millisecond
	net := New(Options{Latency: func(a, b int) time.Duration { return latency }})
	defer net.Close()
	got := make(chan int, n)
	net.RegisterAt(0, 0, handlerFunc(func(mutex.ID, mutex.Message) {}))
	net.RegisterAt(1, 0, handlerFunc(func(_ mutex.ID, m mutex.Message) { got <- m.(testMsg).seq }))
	start := time.Now()
	for i := 0; i < n; i++ {
		net.Endpoint(0).Send(1, testMsg{i})
	}
	for want := 0; want < n; want++ {
		select {
		case i := <-got:
			if i != want {
				t.Fatalf("message %d arrived in place %d", i, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", want)
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("%d messages at %v latency took %v to arrive, want within 100ms", n, latency, d)
	}
}
