package suzukikasami

import (
	"math/rand"
	"slices"
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

// tokenEnv keeps the last token sent through it, boxed as it was sent, and
// drops requests.
type tokenEnv struct {
	to    mutex.ID
	token mutex.Message
}

func (e *tokenEnv) Send(to mutex.ID, m mutex.Message) {
	if _, ok := m.(Token); ok {
		e.to, e.token = to, m
	}
}
func (e *tokenEnv) Local(f func()) { f() }

// TestHolderMatchesDenseScan holds one node to a reference model of the
// 1985 algorithm's dense RN and LN arrays, over random request
// arrivals (stale, fresh and ahead), critical sections and token arrivals
// on 2 to 20 members listed in shuffled ID order: the queue a release
// builds, the member it hands the token to, the grant or OnPending a
// request triggers, the LN a token leaves with and every HasPending answer
// equal what dense rn and ln arrays give.
func TestHolderMatchesDenseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(19)
		members := make([]mutex.ID, n)
		for i, p := range rng.Perm(n) {
			members[i] = mutex.ID(10 * p)
		}
		self := rng.Intn(n)
		env := &tokenEnv{}
		pendings := 0
		inst, err := New(mutex.Config{Self: members[self], Members: members, Holder: members[self], Env: env,
			Callbacks: mutex.Callbacks{OnPending: func() { pendings++ }}})
		if err != nil {
			t.Fatal(err)
		}
		nd := inst.(*node)
		rn, ln := make([]int64, n), make([]int64, n) // ln is the token's while nd holds it
		var queue []mutex.ID
		// sent checks the token nd just sent against the reference and
		// drops the reference's token state.
		sent := func(op int, to mutex.ID) {
			t.Helper()
			if env.token == nil || env.to != to {
				t.Fatalf("trial %d op %d: token sent %v (to %d), want it sent to %d", trial, op, env.token != nil, env.to, to)
			}
			if tok := env.token.(Token); !slices.Equal(tok.LN, ln) || !slices.Equal(tok.Q, queue) {
				t.Fatalf("trial %d op %d: token LN %v Q %v, dense LN %v Q %v", trial, op, tok.LN, tok.Q, ln, queue)
			}
			clear(ln)
			queue = nil
		}
		for op := 0; op < 200; op++ {
			env.token, pendings = nil, 0
			switch r := rng.Intn(10); {
			case r < 5: // a request arrives
				i := rng.Intn(n - 1)
				if i >= self {
					i++
				}
				seq := rn[i] + rng.Int63n(4) - 1
				held, state := nd.token, nd.state
				nd.Deliver(members[i], Request{Seq: seq})
				rn[i] = max(rn[i], seq)
				fresh := held && rn[i] == ln[i]+1
				if fresh && state == mutex.NoReq {
					sent(op, members[i])
				} else if env.token != nil {
					t.Fatalf("trial %d op %d: a request sent the token away", trial, op)
				}
				if want := fresh && state == mutex.InCS; (pendings == 1) != want {
					t.Fatalf("trial %d op %d: OnPending fired %d times, dense scan says %v", trial, op, pendings, want)
				}
			case !nd.token: // the token comes back to a requester
				if nd.state == mutex.NoReq {
					nd.Request()
					rn[self]++
				}
				for i := range ln {
					ln[i] = max(rn[i]-rng.Int63n(3), 0)
				}
				for _, p := range rng.Perm(n) {
					if p != self && rng.Intn(4) == 0 {
						queue = append(queue, members[p])
					}
				}
				nd.Deliver(members[(self+1)%n], Token{LN: slices.Clone(ln), Q: slices.Clone(queue)})
			case nd.state == mutex.NoReq:
				nd.Request()
			default: // the holder leaves its critical section
				nd.Release()
				ln[self] = rn[self]
				for i := range members {
					if rn[i] == ln[i]+1 && !slices.Contains(queue, members[i]) {
						queue = append(queue, members[i])
					}
				}
				if len(queue) > 0 {
					head := queue[0]
					queue = queue[1:]
					sent(op, head)
				} else if env.token != nil {
					t.Fatalf("trial %d op %d: released the token with nothing queued", trial, op)
				}
			}
			want := nd.token && len(queue) > 0
			for i := range members {
				want = want || nd.token && i != self && rn[i] > ln[i]
			}
			if got := nd.HasPending(); got != want {
				t.Fatalf("trial %d op %d: HasPending %v, dense scan %v (rn %v ln %v queue %v)", trial, op, got, want, rn, ln, queue)
			}
		}
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
		{"token of the wrong length", func(m []mutex.Instance) {
			m[1].Request()
			m[1].Deliver(0, Token{LN: make([]int64, 2)})
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
			nd.alloc()
			holder.alloc()
			if !slices.Equal(nd.rn, holder.ln) {
				return false
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
	n.alloc()
	n.rn[n.self] = 1000
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

// TestTokenRoundAllocs pins the allocations of one token round at a node
// among 9 members: its Request, the token's arrival, one request arrival
// while it is in its critical section, and the Release that passes the
// token on. The four are the broadcast's box, the queue the release
// builds, the token's fresh LN and the token's box; RN and LN themselves
// allocate once, on the node's first use. Warm-up rounds take the node's
// sequence number past 255, where boxing an int64 stops being free.
func TestTokenRoundAllocs(t *testing.T) {
	members := make([]mutex.ID, 9)
	for i := range members {
		members[i] = mutex.ID(i)
	}
	env := &tokenEnv{token: Token{LN: make([]int64, len(members))}}
	inst, err := New(mutex.Config{Self: 3, Members: members, Holder: 0, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	req := mutex.Message(Request{Seq: 1000})
	round := func() {
		env.token.(Token).LN[5] = 999 // member 5's request 1000 is fresh
		inst.Request()
		inst.Deliver(0, env.token)
		inst.Deliver(5, req)
		inst.Release()
		if env.to != 5 {
			t.Fatalf("token passed to %d, want 5", env.to)
		}
	}
	for range 300 {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 4 {
		t.Errorf("a token round among 9 members allocates %.1f times, want 4", allocs)
	}
}
