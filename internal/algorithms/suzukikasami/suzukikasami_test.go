package suzukikasami

import (
	"math/rand"
	"testing"
	"testing/quick"

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

func TestRequestBroadcastsToAllOthers(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 5, 0)
	m[3].Request()
	inflight := w.Inflight()
	if len(inflight) != 4 {
		t.Fatalf("broadcast %d messages, want 4", len(inflight))
	}
	targets := map[mutex.ID]bool{}
	for _, s := range inflight {
		if s.From != 3 {
			t.Errorf("request from %d, want 3", s.From)
		}
		if s.Msg.(Request).Seq != 1 {
			t.Errorf("first request seq = %d, want 1", s.Msg.(Request).Seq)
		}
		targets[s.To] = true
	}
	for _, id := range []mutex.ID{0, 1, 2, 4} {
		if !targets[id] {
			t.Errorf("no request sent to %d", id)
		}
	}
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	if m[3].State() != mutex.InCS {
		t.Fatal("requester not in CS")
	}
}

// TestNMessagesPerCS: a CS whose token must move costs exactly N messages
// (N-1 requests plus the token), per section 2.3.
func TestNMessagesPerCS(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 7, 0)
	m[4].Request()
	if err := w.Drain(30); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Log()); got != 7 {
		t.Fatalf("%d messages, want 7: %v", got, w.Kinds())
	}
	_ = m
}

// TestSparseStateMaterialization pins the grid-scale memory bound: RN/LN
// entries exist only for members that ever requested (plus the releasing
// holder's own LN entry), never for the full membership — while the token
// on the wire still carries the dense LN array with its modeled O(N) size.
func TestSparseStateMaterialization(t *testing.T) {
	w := algotest.NewWorld()
	const members = 50
	m := build(t, w, members, 0)
	for _, requester := range []int{7, 23, 7} {
		m[requester].Request()
		if err := w.Drain(400); err != nil {
			t.Fatal(err)
		}
		if m[requester].State() != mutex.InCS {
			t.Fatalf("node %d did not enter CS", requester)
		}
		m[requester].Release()
		if err := w.Drain(400); err != nil {
			t.Fatal(err)
		}
	}
	var lastToken Token
	found := false
	for _, s := range w.Log() {
		if tok, ok := s.Msg.(Token); ok {
			lastToken, found = tok, true
		}
	}
	if !found {
		t.Fatal("no token transfer observed")
	}
	if len(lastToken.LN) != members {
		t.Fatalf("wire token LN has %d entries, want the dense %d", len(lastToken.LN), members)
	}
	if got, want := lastToken.Size(), 16+8*members+4*len(lastToken.Q); got != want {
		t.Fatalf("token Size() = %d, want %d", got, want)
	}
	// Requesters were {7, 23}; releases happened at 7 and 23, and the
	// initial holder 0 granted without releasing. RN can materialize only
	// for requesters; LN only for requesters and releasing holders.
	for i := range m {
		nd := m[i].(*node)
		if got := nd.rn.materialized(); got > 2 {
			t.Errorf("node %d materialized %d RN entries, want <= 2 of %d members", i, got, members)
		}
		if got := nd.ln.materialized(); got > 3 {
			t.Errorf("node %d materialized %d LN entries, want <= 3 of %d members", i, got, members)
		}
	}
}

// TestSeqVecMatchesDense holds the sorted run to a dense reference: random
// get/set/reset sequences, with inserts at the head, in the middle and at
// the tail of the run, must read back what a dense []int64 holds, with one
// entry per member set since the last reset, in member order.
func TestSeqVecMatchesDense(t *testing.T) {
	const n = 20
	rng := rand.New(rand.NewSource(1))
	var v seqVec
	dense := make([]int64, n)
	set := make([]bool, n) // materialized since the last reset
	var head, middle, tail int
	for op := 0; op < 20_000; op++ {
		switch r := rng.Intn(100); {
		case r < 2:
			v.reset()
			clear(dense)
			clear(set)
		case r < 50:
			i := int32(rng.Intn(n))
			x := rng.Int63n(1000)
			if !set[i] {
				switch k, _ := v.find(i); {
				case k == 0:
					head++
				case k == len(v.e):
					tail++
				default:
					middle++
				}
			}
			v.set(i, x)
			dense[i], set[i] = x, true
		default:
			i := int32(rng.Intn(n))
			if got := v.get(i); got != dense[i] {
				t.Fatalf("op %d: get(%d) = %d, dense holds %d", op, i, got, dense[i])
			}
		}
		want := 0
		for _, s := range set {
			if s {
				want++
			}
		}
		if v.materialized() != want {
			t.Fatalf("op %d: %d entries materialized, %d members set", op, v.materialized(), want)
		}
		for k, e := range v.e {
			if k > 0 && v.e[k-1].i >= e.i || e.x != dense[e.i] {
				t.Fatalf("op %d: entry %d is %+v in run %+v", op, k, e, v.e)
			}
		}
	}
	if head == 0 || middle == 0 || tail == 0 {
		t.Fatalf("inserts at head/middle/tail: %d/%d/%d, want each > 0", head, middle, tail)
	}
}

// TestSeqVecSteadyStateAllocs: a reset keeps the run's backing array, so a
// token arrival that re-materializes the coordinators' entries allocates
// nothing once the run has grown.
func TestSeqVecSteadyStateAllocs(t *testing.T) {
	var v seqVec
	fill := func() {
		v.reset()
		for _, i := range []int32{4, 0, 8, 2, 6, 1, 7, 3, 5} {
			v.set(i, int64(i)+1)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Errorf("reset + 9 sets allocates %.1f times, want 0", allocs)
	}
}

func TestHolderReentryIsFree(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 4, 2)
	m[2].Request()
	w.Settle()
	if m[2].State() != mutex.InCS {
		t.Fatal("holder could not re-enter")
	}
	m[2].Release()
	if len(w.Log()) != 0 {
		t.Fatalf("holder re-entry sent %d messages", len(w.Log()))
	}
}

// TestQueueIsIndexOrdered documents the arrival-blind queue construction
// the paper's section 4.6 blames for Suzuki's weaker regularity: requests
// are appended in member-index order at release, not in arrival order.
func TestQueueIsIndexOrdered(t *testing.T) {
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
	w.Settle() // holder enters CS
	// Requests arrive in order 3, then 1, while 0 is inside the CS.
	insts[3].Request()
	insts[1].Request()
	for w.DeliverNext() {
	}
	insts[0].Release()
	if err := w.Drain(40); err != nil {
		t.Fatal(err)
	}
	insts[1].Release()
	if err := w.Drain(40); err != nil {
		t.Fatal(err)
	}
	insts[3].Release()
	if err := w.Drain(40); err != nil {
		t.Fatal(err)
	}
	want := []mutex.ID{0, 1, 3} // index order, despite 3 asking first
	if len(order) != len(want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v (arrival-blind index scan)", order, want)
		}
	}
}

// TestStaleRequestAtHolder replays an already-satisfied request at the
// holder and checks it is not granted twice.
func TestStaleRequestAtHolder(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 3, 0)
	m[1].Request()
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	m[1].Release()
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	// Token is idle at node 1 now. Replay node 1's satisfied request at
	// node 0 — node 0 has no token, must only update RN.
	before := len(w.Log())
	m[0].Deliver(1, Request{Seq: 1})
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Log()) - before; got != 0 {
		t.Fatalf("stale request caused %d messages", got)
	}
	// And replay at the idle holder itself: seq 1 == LN[1], not LN[1]+1,
	// so no grant.
	m[1].Deliver(0, Request{Seq: 0})
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	if !m[1].HoldsToken() {
		t.Fatal("idle holder gave the token away on a stale request")
	}
}

func TestOnPendingWhileInCS(t *testing.T) {
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
		t.Fatal("holder does not report pending request")
	}
}

func TestTokenSizeGrowsWithMembership(t *testing.T) {
	small := Token{LN: make([]int64, 4)}
	big := Token{LN: make([]int64, 64)}
	if small.Size() >= big.Size() {
		t.Errorf("token size does not grow with N: %d vs %d", small.Size(), big.Size())
	}
	queued := Token{LN: make([]int64, 4), Q: []mutex.ID{1, 2, 3}}
	if queued.Size() <= small.Size() {
		t.Error("queue entries do not contribute to token size")
	}
}

func TestTokenStateTransfersWithToken(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, 3, 0)
	// 1 and 2 request while 0 is in CS; on release, 1 gets the token
	// with 2 still queued, and 1's release grants 2 without any new
	// request.
	m[0].Request()
	w.Settle()
	m[1].Request()
	m[2].Request()
	for w.DeliverNext() {
	}
	m[0].Release()
	if err := w.Drain(30); err != nil {
		t.Fatal(err)
	}
	if m[1].State() != mutex.InCS {
		t.Fatalf("node 1 state %v", m[1].State())
	}
	if !m[1].HasPending() {
		t.Fatal("node 1 should see node 2 pending via the token queue")
	}
	before := len(w.Log())
	m[1].Release()
	if err := w.Drain(30); err != nil {
		t.Fatal(err)
	}
	if m[2].State() != mutex.InCS {
		t.Fatal("queued node 2 not served")
	}
	var tokens, others int
	for _, s := range w.Log()[before:] {
		if s.Msg.Kind() == "suzuki.token" {
			tokens++
		} else {
			others++
		}
	}
	if tokens != 1 || others != 0 {
		t.Fatalf("handover cost %d tokens + %d other messages, want 1 + 0", tokens, others)
	}
}

func TestProtocolPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func(m []mutex.Instance)
	}{
		{"double request", func(m []mutex.Instance) { m[1].Request(); m[1].Request() }},
		{"release without CS", func(m []mutex.Instance) { m[1].Release() }},
		{"token while not requesting", func(m []mutex.Instance) {
			m[1].Deliver(0, Token{LN: make([]int64, 3)})
		}},
		{"request from non-member", func(m []mutex.Instance) { m[0].Deliver(99, Request{Seq: 1}) }},
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
func (bogus) Size() int    { return 0 }

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(mutex.Config{}); err == nil {
		t.Fatal("New accepted an invalid config")
	}
}

// TestPropertyTokenStateInvariant: after any random execution drains, the
// token's LN array equals every node's RN view (all requests satisfied),
// the token queue is empty, and exactly one node holds the token.
func TestPropertyTokenStateInvariant(t *testing.T) {
	f := func(seed int64, rawN, rawOps uint8) bool {
		n := int(rawN%6) + 2
		ops := int(rawOps%25) + 5
		rng := rand.New(rand.NewSource(seed))
		w := algotest.NewWorld()
		members := make([]mutex.ID, n)
		for i := range members {
			members[i] = mutex.ID(i)
		}
		insts, err := w.Build(New, members, 0, nil)
		if err != nil {
			return false
		}
		for k := 0; k < ops; k++ {
			switch rng.Intn(3) {
			case 0:
				i := rng.Intn(n)
				if insts[i].State() == mutex.NoReq {
					insts[i].Request()
				}
			case 1:
				i := rng.Intn(n)
				if insts[i].State() == mutex.InCS {
					insts[i].Release()
				}
			default:
				if fl := w.Inflight(); len(fl) > 0 {
					w.DeliverAt(rng.Intn(len(fl)))
				}
			}
		}
		for round := 0; round < 10*n*ops+100; round++ {
			if err := w.Drain(100000); err != nil {
				return false
			}
			progressed := false
			for _, inst := range insts {
				if inst.State() == mutex.InCS {
					inst.Release()
					progressed = true
				}
			}
			if !progressed && len(w.Inflight()) == 0 {
				break
			}
		}
		holders := 0
		var holder *node
		for _, inst := range insts {
			nd := inst.(*node)
			if nd.State() != mutex.NoReq {
				return false
			}
			if nd.HoldsToken() {
				holders++
				holder = nd
			}
		}
		if holders != 1 || holder == nil {
			return false
		}
		if len(holder.queue) != 0 || holder.HasPending() {
			return false
		}
		// Every node's RN must match the token's LN: no satisfied
		// request is remembered as outstanding anywhere.
		for _, inst := range insts {
			nd := inst.(*node)
			for i := range members {
				if nd.rn.get(int32(i)) != holder.ln.get(int32(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// countEnv counts the messages sent through it and keeps nothing else.
type countEnv struct{ sent int }

func (e *countEnv) Send(mutex.ID, mutex.Message) { e.sent++ }
func (e *countEnv) Local(f func())               { f() }

// TestRequestBroadcastAllocs: Request() boxes its Request once for the
// whole broadcast, not once per recipient: among 9 members it allocates
// once where a value passed to every Send allocated 8 times. Sequence
// numbers start above 255, where boxing an int64 stops being free.
func TestRequestBroadcastAllocs(t *testing.T) {
	members := make([]mutex.ID, 9)
	for i := range members {
		members[i] = mutex.ID(i)
	}
	env := &countEnv{}
	inst, err := New(mutex.Config{Self: 3, Members: members, Holder: 0, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	n := inst.(*node)
	n.rn.set(n.self, 1000)
	if allocs := testing.AllocsPerRun(100, func() {
		n.state = mutex.NoReq
		n.Request()
	}); allocs != 1 {
		t.Errorf("a Request() among 9 members allocates %.0f times, want 1", allocs)
	}
	if env.sent != 8*101 {
		t.Errorf("sent %d requests in 101 broadcasts, want %d", env.sent, 8*101)
	}
}
