package naimitrehel

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

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

func build(t *testing.T, w *algotest.World, members []mutex.ID, holder mutex.ID) map[mutex.ID]mutex.Instance {
	t.Helper()
	insts, err := w.Build(New, members, holder, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[mutex.ID]mutex.Instance, len(insts))
	for i, id := range members {
		out[id] = insts[i]
	}
	return out
}

func TestInitialState(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, ids(0, 1, 2), 0)
	if !m[0].HoldsToken() {
		t.Error("holder does not hold the token")
	}
	if m[1].HoldsToken() || m[2].HoldsToken() {
		t.Error("non-holder holds the token")
	}
	for id, inst := range m {
		if inst.State() != mutex.NoReq {
			t.Errorf("node %d starts in %v", id, inst.State())
		}
		if inst.HasPending() {
			t.Errorf("node %d starts with pending requests", id)
		}
	}
	if f := m[1].(*node).Father(); f != 0 {
		t.Errorf("node 1 father = %d, want 0", f)
	}
	if f := m[0].(*node).Father(); f != mutex.None {
		t.Errorf("root father = %d, want None", f)
	}
}

func TestDirectGrantFromIdleRoot(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, ids(0, 1), 0)
	m[1].Request()
	if got := w.Inflight(); len(got) != 1 || got[0].To != 0 || got[0].Msg.Kind() != "naimi.request" {
		t.Fatalf("unexpected traffic after Request: %+v", got)
	}
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if m[1].State() != mutex.InCS || !m[1].HoldsToken() {
		t.Fatalf("requester state %v, token %v", m[1].State(), m[1].HoldsToken())
	}
	if m[0].HoldsToken() {
		t.Error("old root still holds the token")
	}
	// Path reversal: the old root now believes the requester owns it.
	if f := m[0].(*node).Father(); f != 1 {
		t.Errorf("old root father = %d, want 1", f)
	}
	// Exactly 2 messages: one request, one token.
	if kinds := w.Kinds(); len(kinds) != 2 || kinds[0] != "naimi.request" || kinds[1] != "naimi.token" {
		t.Errorf("message kinds = %v", kinds)
	}
}

func TestRootInCSQueuesNext(t *testing.T) {
	w := algotest.NewWorld()
	acquired := map[mutex.ID]int{}
	pendings := 0
	insts, err := w.Build(New, ids(0, 1), 0, func(self mutex.ID) mutex.Callbacks {
		return mutex.Callbacks{
			OnAcquire: func() { acquired[self]++ },
			OnPending: func() { pendings++ },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	root, other := insts[0], insts[1]

	root.Request() // immediate: root holds token idle
	w.Settle()
	if acquired[0] != 1 || root.State() != mutex.InCS {
		t.Fatalf("root did not enter CS immediately (acquired=%v state=%v)", acquired[0], root.State())
	}
	other.Request()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if pendings != 1 {
		t.Fatalf("OnPending fired %d times, want 1", pendings)
	}
	if !root.HasPending() {
		t.Fatal("root does not report the queued next")
	}
	if nx := root.(*node).Next(); nx != 1 {
		t.Fatalf("root next = %d, want 1", nx)
	}
	if other.State() != mutex.Req {
		t.Fatalf("waiter state = %v, want REQ", other.State())
	}
	root.Release()
	if err := w.Drain(10); err != nil {
		t.Fatal(err)
	}
	if acquired[1] != 1 || other.State() != mutex.InCS {
		t.Fatal("queued requester did not get the token after release")
	}
	if root.HasPending() {
		t.Error("root still reports pending after handing the token over")
	}
}

func TestRequestForwardingAndPathReversal(t *testing.T) {
	w := algotest.NewWorld()
	m := build(t, w, ids(0, 1, 2), 0)
	// 1 requests, then (before anything is delivered) 2 requests. Both
	// requests point at 0 — the probable owner both know.
	m[1].Request()
	m[2].Request()
	inflight := w.Inflight()
	if len(inflight) != 2 || inflight[0].To != 0 || inflight[1].To != 0 {
		t.Fatalf("both requests should target node 0: %+v", inflight)
	}
	// Deliver 1's request: 0 is idle root, grants; father(0)=1.
	w.DeliverAt(0)
	// Deliver 2's request to 0: 0 is no longer root, forwards to 1;
	// father(0)=2.
	w.DeliverAt(0)
	if f := m[0].(*node).Father(); f != 2 {
		t.Fatalf("node 0 father = %d, want 2 after reversal", f)
	}
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	// 1 holds the token in CS with next=2.
	if m[1].State() != mutex.InCS {
		t.Fatalf("node 1 state %v, want CS", m[1].State())
	}
	if nx := m[1].(*node).Next(); nx != 2 {
		t.Fatalf("node 1 next = %d, want 2", nx)
	}
	m[1].Release()
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	if m[2].State() != mutex.InCS {
		t.Fatalf("node 2 state %v, want CS", m[2].State())
	}
}

func TestTokenGrantIsSingleMessage(t *testing.T) {
	// T_token = T in Naimi-Trehel (section 2.2): releasing to next is one
	// message regardless of tree shape.
	w := algotest.NewWorld()
	m := build(t, w, ids(0, 1, 2, 3, 4), 0)
	m[3].Request()
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	before := len(w.Log())
	m[4].Request()
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	m[3].Release()
	if err := w.Drain(20); err != nil {
		t.Fatal(err)
	}
	var tokens int
	for _, s := range w.Log()[before:] {
		if s.Msg.Kind() == "naimi.token" {
			tokens++
		}
	}
	if tokens != 1 {
		t.Fatalf("granting took %d token messages, want 1", tokens)
	}
	if m[4].State() != mutex.InCS {
		t.Fatal("node 4 not in CS")
	}
}

func TestProtocolPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func(w *algotest.World, m map[mutex.ID]mutex.Instance)
	}{
		{"double request", func(w *algotest.World, m map[mutex.ID]mutex.Instance) {
			m[1].Request()
			m[1].Request()
		}},
		{"release without CS", func(w *algotest.World, m map[mutex.ID]mutex.Instance) {
			m[1].Release()
		}},
		{"unexpected message type", func(w *algotest.World, m map[mutex.ID]mutex.Instance) {
			m[1].Deliver(0, bogus{})
		}},
		{"token while not requesting", func(w *algotest.World, m map[mutex.ID]mutex.Instance) {
			m[1].Deliver(0, Token{})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := algotest.NewWorld()
			m := build(t, w, ids(0, 1, 2), 0)
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
func (bogus) Size() int    { return 0 }

func TestMessageMetadata(t *testing.T) {
	if (Request{}).Kind() != "naimi.request" || (Request{}).Size() <= 0 {
		t.Error("bad Request metadata")
	}
	if (Token{}).Kind() != "naimi.token" || (Token{}).Size() <= 0 {
		t.Error("bad Token metadata")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(mutex.Config{}); err == nil {
		t.Fatal("New accepted an invalid config")
	}
}

// TestPropertyTreeInvariant: after any random execution drains, the father
// pointers form a tree rooted at the token holder — every node's father
// chain reaches the unique root (father == None) without cycles, and the
// root holds the token.
func TestPropertyTreeInvariant(t *testing.T) {
	f := func(seed int64, rawN uint8, rawOps uint8) bool {
		n := int(rawN%8) + 2
		ops := int(rawOps%30) + 5
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
		// Random ops: request on an idle node, release on an in-CS
		// node, or deliver a pending message.
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
		// Finish every outstanding cycle: drain, release whoever is in
		// CS, repeat until quiescent.
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
		// Invariant check.
		roots := 0
		var root mutex.ID = mutex.None
		for i, inst := range insts {
			nd := inst.(*node)
			if nd.State() != mutex.NoReq {
				return false // someone never finished
			}
			if nd.Father() == mutex.None {
				roots++
				root = members[i]
			}
		}
		if roots != 1 {
			return false
		}
		for _, inst := range insts {
			if inst.(*node).Father() == mutex.None != inst.HoldsToken() {
				return false // root and holder must coincide at rest
			}
		}
		if !insts[root].HoldsToken() {
			return false
		}
		// Father chains reach the root without cycles.
		for i := range insts {
			cur := mutex.ID(i)
			for steps := 0; cur != root; steps++ {
				if steps > n {
					return false // cycle
				}
				cur = insts[cur].(*node).Father()
				if cur == mutex.None {
					// Only the root may have a nil father, and the
					// loop stops at the root before reading it.
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

// TestNodeLayout pins what a Naimi-Trehel node keeps: its Env, callbacks,
// self, the two pointers, the token flag and the state — at most 48 bytes,
// with no copy of the member list a 10⁵-process hierarchy would pay for in
// every instance.
func TestNodeLayout(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size > 48 {
		t.Fatalf("node is %d bytes, want <= 48", size)
	}
}

// lastEnv keeps the last message sent and nothing else, so that sending
// through it allocates nothing of its own.
type lastEnv struct {
	to  mutex.ID
	msg mutex.Message
}

func (e *lastEnv) Send(to mutex.ID, m mutex.Message) { e.to, e.msg = to, m }
func (e *lastEnv) Local(f func())                    { f() }

// TestForwardRequestAllocs: a node that is not the root forwards the
// request it was handed, so forwarding allocates nothing. Boxing
// Request{Origin} again allocates once per hop for every origin of 256 and
// above, the ids of all but the first few processes of a large hierarchy.
func TestForwardRequestAllocs(t *testing.T) {
	env := &lastEnv{}
	inst, err := New(mutex.Config{Self: 5, Members: ids(0, 5, 300), Holder: 0, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	n := inst.(*node)
	var req mutex.Message = Request{Origin: 300}
	if allocs := testing.AllocsPerRun(100, func() {
		n.father = 0
		n.Deliver(300, req)
	}); allocs != 0 {
		t.Errorf("forwarding a request allocates %.0f times, want 0", allocs)
	}
	if env.to != 0 || env.msg != req || n.father != 300 {
		t.Errorf("forwarded %v to %d and left father %d, want %v to 0 and father 300", env.msg, env.to, n.father, req)
	}
}
