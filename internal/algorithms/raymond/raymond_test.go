package raymond

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

func TestTreeParents(t *testing.T) {
	members := []mutex.ID{10, 11, 12, 13, 14, 15, 16}
	mk := func(self mutex.ID, holder mutex.ID) mutex.Config {
		return mutex.Config{Self: self, Members: members, Holder: holder, Env: algotest.NewWorld().Env(self)}
	}
	// Holder 10 at logical 0: heap parents are (l-1)/2.
	wantParent := map[mutex.ID]mutex.ID{
		11: 10, 12: 10, // logical 1,2 -> 0
		13: 11, 14: 11, // logical 3,4 -> 1
		15: 12, 16: 12, // logical 5,6 -> 2
	}
	for self, want := range wantParent {
		if got := parentOf(mk(self, 10)); got != want {
			t.Errorf("parentOf(%d) = %d, want %d", self, got, want)
		}
	}
	// Re-rooted at 12: logical index shifts by the holder offset.
	if got := parentOf(mk(13, 12)); got != 12 {
		t.Errorf("re-rooted parentOf(13) = %d, want 12", got)
	}
}

func TestDirectNeighbourGrant(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 3, 0)
	m[1].Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if m[1].State() != mutex.InCS {
		t.Fatalf("state %v, want CS", m[1].State())
	}
	kinds := w.Kinds()
	if len(kinds) != 2 || kinds[0] != "raymond.request" || kinds[1] != "raymond.privilege" {
		t.Fatalf("kinds = %v", kinds)
	}
	if m[0].HoldsToken() {
		t.Error("old holder still claims the privilege")
	}
}

func TestDeepRequestTravelsTreePath(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 7, 0)
	// Node 5 is a leaf under 2 under 0: request should take 2 hops up,
	// privilege 2 hops down.
	m[5].Request()
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	if m[5].State() != mutex.InCS {
		t.Fatal("leaf not granted")
	}
	log := w.Log()
	if len(log) != 4 {
		t.Fatalf("%d messages, want 4: %v", len(log), w.Kinds())
	}
	if log[0].From != 5 || log[0].To != 2 || log[1].From != 2 || log[1].To != 0 {
		t.Errorf("request path wrong: %+v", log[:2])
	}
	if log[2].From != 0 || log[2].To != 2 || log[3].From != 2 || log[3].To != 5 {
		t.Errorf("privilege path wrong: %+v", log[2:])
	}
}

func TestIntermediateNodeServesItselfFirstInFIFO(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 7, 0)
	// 2 requests, then 5 (child of 2) requests. 2's queue: [self, 5].
	m[2].Request()
	m[5].Request()
	if err := w.Drain(30); err != nil {
		t.Fatal(err)
	}
	if m[2].State() != mutex.InCS {
		t.Fatalf("node 2 state %v", m[2].State())
	}
	if m[5].State() != mutex.Req {
		t.Fatalf("node 5 state %v", m[5].State())
	}
	if !m[2].HasPending() {
		t.Fatal("node 2 should report node 5 pending")
	}
	m[2].Release()
	if err := w.Drain(30); err != nil {
		t.Fatal(err)
	}
	if m[5].State() != mutex.InCS {
		t.Fatal("node 5 not served after 2's release")
	}
}

func TestAskedFlagSuppressesDuplicateRequests(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 7, 0)
	// 5 and 6 are both children of 2. Their requests both enqueue at 2,
	// but 2 must send only one request up to 0.
	m[5].Request()
	m[6].Request()
	// Deliver both children's requests to 2 before anything else moves.
	w.DeliverAt(0)
	w.DeliverAt(0)
	upward := 0
	for _, s := range w.Inflight() {
		if s.From == 2 && s.To == 0 {
			upward++
		}
	}
	if upward != 1 {
		t.Fatalf("node 2 sent %d upward requests, want 1 (asked flag)", upward)
	}
	if err := w.Drain(40); err != nil {
		t.Fatal(err)
	}
	// Eventually both get the CS: 5 first (FIFO at 2), then 6 after 5
	// releases.
	if m[5].State() != mutex.InCS {
		t.Fatalf("node 5 state %v", m[5].State())
	}
	m[5].Release()
	if err := w.Drain(40); err != nil {
		t.Fatal(err)
	}
	if m[6].State() != mutex.InCS {
		t.Fatalf("node 6 state %v", m[6].State())
	}
}

func TestOnPendingWhileUsing(t *testing.T) {
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
	w.Settle()
	insts[1].Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if pendings != 1 {
		t.Fatalf("OnPending fired %d times, want 1", pendings)
	}
	if !insts[0].HasPending() {
		t.Fatal("holder does not report pending")
	}
}

func TestProtocolPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func(m []mutex.Instance)
	}{
		{"double request", func(m []mutex.Instance) { m[1].Request(); m[1].Request() }},
		{"release without CS", func(m []mutex.Instance) { m[1].Release() }},
		{"unexpected message", func(m []mutex.Instance) { m[1].Deliver(0, bogus{}) }},
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
