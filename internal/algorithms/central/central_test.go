package central

import (
	"testing"

	"gridmutex/internal/algorithms/algotest"
	"gridmutex/internal/mutex"
)

func build(t *testing.T, w *algotest.World, n int, holder mutex.ID) []mutex.Instance {
	t.Helper()
	members := make([]mutex.ID, n)
	for i := range members {
		members[i] = mutex.ID(i)
	}
	insts, err := w.Build(New, members, holder, nil)
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

func TestClientGrantCycle(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 3, 0)
	m[1].Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if m[1].State() != mutex.InCS || !m[1].HoldsToken() {
		t.Fatalf("client not granted: state %v", m[1].State())
	}
	m[1].Release()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	kinds := w.Kinds()
	want := []string{"central.request", "central.grant", "central.release"}
	if len(kinds) != 3 {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

func TestServerSelfGrant(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 3, 0)
	m[0].Request()
	w.Settle()
	if m[0].State() != mutex.InCS {
		t.Fatal("server could not self-grant")
	}
	m[0].Release()
	if len(w.Log()) != 0 {
		t.Fatalf("server self-grant cost %d messages", len(w.Log()))
	}
}

func TestFIFOGrantOrder(t *testing.T) {
	w := algotest.NewWorld()
	order := []mutex.ID{}
	members := []mutex.ID{0, 1, 2, 3}
	insts, err := w.Build(New, members, 0, func(self mutex.ID) mutex.Callbacks {
		return mutex.Callbacks{OnAcquire: func() { order = append(order, self) }}
	})
	if err != nil {
		t.Fatal(err)
	}
	insts[0].Request()
	w.Settle()
	// Arrival order 3, 2, 1 at the server while it is in CS.
	insts[3].Request()
	insts[2].Request()
	insts[1].Request()
	for w.DeliverNext() {
	}
	insts[0].Release()
	if err := w.Drain(40); err != nil {
		t.Fatal(err)
	}
	insts[3].Release()
	if err := w.Drain(40); err != nil {
		t.Fatal(err)
	}
	insts[2].Release()
	if err := w.Drain(40); err != nil {
		t.Fatal(err)
	}
	insts[1].Release()
	if err := w.Drain(40); err != nil {
		t.Fatal(err)
	}
	want := []mutex.ID{0, 3, 2, 1}
	if len(order) != len(want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want FIFO %v", order, want)
		}
	}
}

func TestNudgeReachesRemoteHolder(t *testing.T) {
	w := algotest.NewWorld()
	pendings := 0
	members := []mutex.ID{0, 1, 2}
	insts, err := w.Build(New, members, 0, func(self mutex.ID) mutex.Callbacks {
		if self != 1 {
			return mutex.Callbacks{}
		}
		return mutex.Callbacks{OnPending: func() { pendings++ }}
	})
	if err != nil {
		t.Fatal(err)
	}
	insts[1].Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if insts[1].State() != mutex.InCS {
		t.Fatal("client 1 not granted")
	}
	// Client 2 requests while 1 holds the section: the server must
	// nudge 1 exactly once.
	insts[2].Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if pendings != 1 {
		t.Fatalf("OnPending fired %d times at remote holder, want 1", pendings)
	}
	if !insts[1].HasPending() {
		t.Fatal("remote holder does not report pending")
	}
	nudges := 0
	for _, k := range w.Kinds() {
		if k == "central.nudge" {
			nudges++
		}
	}
	if nudges != 1 {
		t.Fatalf("%d nudges on the wire, want 1", nudges)
	}
	insts[1].Release()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if insts[2].State() != mutex.InCS {
		t.Fatal("client 2 not served after release")
	}
}

func TestNudgeOncePerGrantPeriod(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 4, 0)
	m[1].Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	// Two further requests during one grant period: one nudge only.
	m[2].Request()
	m[3].Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	nudges := 0
	for _, k := range w.Kinds() {
		if k == "central.nudge" {
			nudges++
		}
	}
	if nudges != 1 {
		t.Fatalf("%d nudges, want 1", nudges)
	}
	// After the handover to 2, 3 is still queued: a fresh nudge fires
	// for the new grant period.
	m[1].Release()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	nudges = 0
	for _, k := range w.Kinds() {
		if k == "central.nudge" {
			nudges++
		}
	}
	if nudges != 2 {
		t.Fatalf("%d total nudges after handover, want 2", nudges)
	}
}

func TestServerHasPendingOnlyWhileHoldingItself(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 3, 0)
	m[0].Request()
	w.Settle()
	m[1].Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if !m[0].HasPending() {
		t.Fatal("server in CS with queue should report pending")
	}
	m[0].Release()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if m[0].HasPending() {
		t.Fatal("server reports pending for a section it no longer holds")
	}
}

func TestNudgeAfterReleaseIsIgnored(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 3, 0)
	// A nudge racing with the holder's release arrives while NoReq.
	m[1].Deliver(0, Nudge{})
	w.Settle()
	if m[1].HasPending() {
		t.Fatal("stale nudge set pending on a non-holder")
	}
}

func TestProtocolPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func(w *algotest.World, m []mutex.Instance)
	}{
		{"double request", func(w *algotest.World, m []mutex.Instance) { m[1].Request(); m[1].Request() }},
		{"release without CS", func(w *algotest.World, m []mutex.Instance) { m[1].Release() }},
		{"request at non-server", func(w *algotest.World, m []mutex.Instance) { m[1].Deliver(2, Request{}) }},
		{"release at non-server", func(w *algotest.World, m []mutex.Instance) { m[1].Deliver(2, ReleaseMsg{}) }},
		{"grant while not requesting", func(w *algotest.World, m []mutex.Instance) { m[1].Deliver(0, Grant{}) }},
		{"release from wrong client", func(w *algotest.World, m []mutex.Instance) {
			m[1].Request()
			if err := w.Drain(10); err != nil {
				t.Fatal(err)
			}
			m[0].Deliver(2, ReleaseMsg{})
		}},
		{"unexpected message", func(w *algotest.World, m []mutex.Instance) { m[1].Deliver(0, bogus{}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := algotest.NewWorld()
			m := build(t, w, 3, 0)
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.run(w, m)
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
