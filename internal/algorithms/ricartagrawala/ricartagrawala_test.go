package ricartagrawala

import (
	"testing"

	"gridmutex/internal/algorithms/algotest"
	"gridmutex/internal/mutex"
)

func build(t *testing.T, w *algotest.World, n int) []mutex.Instance {
	t.Helper()
	members := make([]mutex.ID, n)
	for i := range members {
		members[i] = mutex.ID(i)
	}
	insts, err := w.Build(New, members, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

func TestUncontendedAcquisition(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 4)
	m[2].Request()
	// 3 requests broadcast, 3 replies back.
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	if m[2].State() != mutex.InCS || !m[2].HoldsToken() {
		t.Fatalf("state %v after full reply round", m[2].State())
	}
	if got := len(w.Log()); got != 6 {
		t.Fatalf("%d messages, want 2(N-1)=6: %v", got, w.Kinds())
	}
	m[2].Release()
	if len(w.Inflight()) != 0 {
		t.Fatal("release with no deferred replies sent messages")
	}
}

// TestExactMessageComplexity: every CS costs exactly 2(N-1) messages, even
// under contention.
func TestExactMessageComplexity(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 5)
	m[1].Request()
	m[3].Request()
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
	// One of them is in CS, the other waiting.
	inCS, waiting := m[1], m[3]
	if m[3].State() == mutex.InCS {
		inCS, waiting = m[3], m[1]
	}
	if inCS.State() != mutex.InCS || waiting.State() != mutex.Req {
		t.Fatalf("states: %v / %v", m[1].State(), m[3].State())
	}
	inCS.Release()
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
	if waiting.State() != mutex.InCS {
		t.Fatal("deferred reply did not grant the waiter")
	}
	waiting.Release()
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
	// Two critical sections, 2*2*(N-1) = 16 messages total.
	if got := len(w.Log()); got != 16 {
		t.Fatalf("%d messages for 2 CS, want 16: %v", got, w.Kinds())
	}
}

// TestTimestampPriority: the request with the smaller Lamport timestamp
// wins; ties break toward the smaller ID.
func TestTimestampPriority(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 2)
	// Both request concurrently with clock 1: node 0 must win the tie.
	m[0].Request()
	m[1].Request()
	if err := w.Drain(50); err != nil {
		t.Fatal(err)
	}
	if m[0].State() != mutex.InCS {
		t.Fatalf("node 0 state %v, want CS (tie-break by ID)", m[0].State())
	}
	if m[1].State() != mutex.Req {
		t.Fatalf("node 1 state %v, want REQ", m[1].State())
	}
	if !m[0].HasPending() {
		t.Fatal("winner does not report the deferred loser")
	}
	m[0].Release()
	if err := w.Drain(50); err != nil {
		t.Fatal(err)
	}
	if m[1].State() != mutex.InCS {
		t.Fatal("loser never granted")
	}
}

// TestClockCatchUp: a node that was idle for many rounds still loses to an
// earlier-timestamped request in flight.
func TestClockCatchUp(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 3)
	// Node 1 runs two full CS cycles, pushing clocks up at nodes that
	// hear its requests.
	for i := 0; i < 2; i++ {
		m[1].Request()
		if err := w.Drain(50); err != nil {
			t.Fatal(err)
		}
		m[1].Release()
		if err := w.Drain(50); err != nil {
			t.Fatal(err)
		}
	}
	// Node 2's clock advanced by receiving 1's requests; its next
	// request is timestamped after them.
	m[2].Request()
	if err := w.Drain(50); err != nil {
		t.Fatal(err)
	}
	if m[2].State() != mutex.InCS {
		t.Fatal("node 2 not granted in quiescent system")
	}
	m[2].Release()
	if err := w.Drain(50); err != nil {
		t.Fatal(err)
	}
}

func TestOnPendingFiresOnlyInCS(t *testing.T) {
	w := algotest.NewWorld()
	pendings := 0
	members := []mutex.ID{0, 1}
	insts, err := w.Build(New, members, 0, func(self mutex.ID) mutex.Callbacks {
		if self != 0 {
			return mutex.Callbacks{}
		}
		return mutex.Callbacks{OnPending: func() { pendings++ }}
	})
	if err != nil {
		t.Fatal(err)
	}
	insts[0].Request()
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	insts[1].Request()
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	if pendings != 1 {
		t.Fatalf("OnPending fired %d times, want 1", pendings)
	}
}

func TestSingleMember(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 1)
	m[0].Request()
	w.Settle()
	if m[0].State() != mutex.InCS {
		t.Fatal("single member did not self-grant")
	}
	m[0].Release()
	if len(w.Log()) != 0 {
		t.Fatal("single member sent messages")
	}
}

func TestProtocolPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func(m []mutex.Instance)
	}{
		{"double request", func(m []mutex.Instance) { m[1].Request(); m[1].Request() }},
		{"release without CS", func(m []mutex.Instance) { m[1].Release() }},
		{"reply while not requesting", func(m []mutex.Instance) { m[1].Deliver(0, Reply{}) }},
		{"unexpected message", func(m []mutex.Instance) { m[1].Deliver(0, bogus{}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := algotest.NewWorld()
			m := build(t, w, 3)
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.run(m)
		})
	}
}

type bogus struct{}

func (bogus) Kind() string { return "bogus" }

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(mutex.Config{}); err == nil {
		t.Fatal("New accepted an invalid config")
	}
}
