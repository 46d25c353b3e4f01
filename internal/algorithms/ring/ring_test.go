package ring

import (
	"testing"

	"gridmutex/internal/algorithms/algotest"
	"gridmutex/internal/mutex"
)

func ids(ns ...int) []mutex.ID {
	out := make([]mutex.ID, len(ns))
	for i, n := range ns {
		out[i] = mutex.ID(n)
	}
	return out
}

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

func TestInitialState(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 4, 2)
	for i, inst := range m {
		if got, want := inst.HoldsToken(), i == 2; got != want {
			t.Errorf("node %d HoldsToken = %v, want %v", i, got, want)
		}
		if inst.State() != mutex.NoReq || inst.HasPending() {
			t.Errorf("node %d not quiescent at start", i)
		}
	}
}

// TestExactMessageCount checks the 2(x+1) cost of section 2.1: requester 1,
// holder 4, ring of 5. The request travels 1→2→3→4 (x+1 = 3 hops, x = 2
// intermediate nodes) and the token returns 4→3→2→1.
func TestExactMessageCount(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 5, 4)
	m[1].Request()
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	if m[1].State() != mutex.InCS {
		t.Fatalf("requester state %v", m[1].State())
	}
	log := w.Log()
	if len(log) != 6 {
		t.Fatalf("%d messages, want 2*(2+1)=6: %+v", len(log), w.Kinds())
	}
	wantPath := []struct {
		from, to mutex.ID
		kind     string
	}{
		{1, 2, "martin.request"},
		{2, 3, "martin.request"},
		{3, 4, "martin.request"},
		{4, 3, "martin.token"},
		{3, 2, "martin.token"},
		{2, 1, "martin.token"},
	}
	for i, want := range wantPath {
		got := log[i]
		if got.From != want.from || got.To != want.to || got.Msg.Kind() != want.kind {
			t.Errorf("hop %d = %d->%d %s, want %d->%d %s",
				i, got.From, got.To, got.Msg.Kind(), want.from, want.to, want.kind)
		}
	}
}

func TestIdleHolderGrantsImmediately(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 3, 0)
	// Node 2's request goes to its successor 0, the idle holder.
	m[2].Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if len(w.Log()) != 2 {
		t.Fatalf("%d messages, want 2 (request + token): %v", len(w.Log()), w.Kinds())
	}
	if m[2].State() != mutex.InCS {
		t.Fatal("requester did not enter CS")
	}
}

func TestHolderInCSDefersAndOnPendingFires(t *testing.T) {
	w := algotest.NewWorld()
	members := ids(0, 1)
	pendings := 0
	insts, err := w.Build(New, members, 0, func(self mutex.ID) mutex.Callbacks {
		if self != 0 {
			return mutex.Callbacks{}
		}
		return mutex.Callbacks{OnPending: func() { pendings++ }}
	})
	if err != nil {
		t.Fatal(err)
	}
	holder, other := insts[0], insts[1]
	holder.Request()
	w.Settle()
	if holder.State() != mutex.InCS {
		t.Fatal("holder did not enter its own CS")
	}
	other.Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if pendings != 1 {
		t.Fatalf("OnPending fired %d times, want 1", pendings)
	}
	if !holder.HasPending() {
		t.Fatal("holder does not report pending")
	}
	holder.Release()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if other.State() != mutex.InCS {
		t.Fatal("waiter did not get the token on release")
	}
	if holder.HasPending() {
		t.Error("pending flag not cleared after pass-on")
	}
}

// TestRequestAbsorption: a requesting node does not forward its
// predecessor's request (the optimization of section 2.1) and a collective
// token pass serves both.
func TestRequestAbsorption(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 4, 3)
	// Node 2 requests: request would travel 2->3. Node 1 requests:
	// request travels 1->2, where it must be absorbed because 2 is
	// requesting.
	m[2].Request()
	m[1].Request()
	// Deliver 1's request to 2 first: absorbed, no forward.
	w.DeliverAt(1)
	if got := len(w.Inflight()); got != 1 {
		t.Fatalf("absorption still forwarded something: %d in flight", got)
	}
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	// 2 is closer to the holder in token direction, so it is served
	// first.
	if m[2].State() != mutex.InCS {
		t.Fatalf("node 2 state %v, want CS", m[2].State())
	}
	if m[1].State() != mutex.Req {
		t.Fatalf("node 1 state %v, want REQ", m[1].State())
	}
	m[2].Release()
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	if m[1].State() != mutex.InCS {
		t.Fatal("node 1 not served by the collective pass")
	}
	// Total: 1 request 2->3, 1 request 1->2 (absorbed), token 3->2,
	// token 2->1.
	if n := len(w.Log()); n != 4 {
		t.Fatalf("%d messages, want 4: %v", n, w.Kinds())
	}
}

// TestTokenParksOnCrossing: when a request and the token cross in flight,
// the pass-on chain may deliver the token to a node that no longer needs to
// relay it; the token parks there and stays available.
func TestTokenParksOnCrossing(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 3, 0)
	// Hand-deliver a token to node 1 (NoReq, no passOn) as the tail end
	// of a consumed pass-on chain.
	m[1].Deliver(2, Token{})
	w.Settle()
	if !m[1].HoldsToken() {
		t.Fatal("token not parked")
	}
	if m[1].State() != mutex.NoReq {
		t.Fatalf("parked node state %v", m[1].State())
	}
	if len(w.Inflight()) != 0 {
		t.Fatalf("parking still sent messages: %v", w.Kinds())
	}
	// The parked token serves the next request that reaches it.
	m[0].Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if m[0].State() != mutex.InCS {
		t.Fatal("request not served by parked token")
	}
}

func TestSingleNodeRing(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 1, 0)
	m[0].Request()
	w.Settle()
	if m[0].State() != mutex.InCS {
		t.Fatal("single node did not self-grant")
	}
	m[0].Release()
	if len(w.Log()) != 0 {
		t.Fatalf("single-node ring sent %d messages", len(w.Log()))
	}
}

func TestProtocolPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func(m []mutex.Instance)
	}{
		{"double request", func(m []mutex.Instance) { m[1].Request(); m[1].Request() }},
		{"release without CS", func(m []mutex.Instance) { m[1].Release() }},
		{"duplicate token", func(m []mutex.Instance) { m[0].Deliver(1, Token{}) }},
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

func TestMessageMetadata(t *testing.T) {
	if (Request{}).Kind() != "martin.request" {
		t.Error("bad Request metadata")
	}
	if (Token{}).Kind() != "martin.token" {
		t.Error("bad Token metadata")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(mutex.Config{}); err == nil {
		t.Fatal("New accepted an invalid config")
	}
}
