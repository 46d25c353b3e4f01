// Package suzukikasami implements the Suzuki-Kasami broadcast-based token
// algorithm (Suzuki, Kasami 1985), as described in section 2.3 of the
// paper.
//
// A requester broadcasts its request, stamped with a per-node sequence
// number, to the N-1 other participants; every node tracks the highest
// request number it has seen from each node in RN. The token carries LN —
// the sequence number of the most recently satisfied request of every node
// — and a queue Q of nodes with granted-pending requests. A critical
// section costs N messages (N-1 requests plus one token transfer), and both
// the request and the grant take a single message delay.
//
// Requests are appended to Q in member-index order, ignoring arrival times;
// this is the fairness weakness the paper observes in section 4.6.
//
// The in-memory RN/LN vectors are sparse: entries materialize only for
// members that have ever requested, so a node's state is O(requesters
// heard from) instead of O(N) — at grid scale the dense vectors are the
// token-state memory wall (N processes × N entries). The token on the
// wire still carries the dense LN array the 1985 algorithm defines, with
// identical contents and the same O(N) encoding; only the resident
// representation is factored. The sparse entries are one run sorted by
// member index, so iterating them walks member order by construction.
package suzukikasami

import (
	"fmt"
	"slices"

	"gridmutex/internal/mutex"
)

// Request announces the Seq-th critical section invocation of its sender.
type Request struct {
	Seq int64
}

// Kind implements mutex.Message.
func (Request) Kind() string { return "suzuki.request" }

// Token carries the satisfied-request array LN (indexed like
// Config.Members) and the queue Q of pending grantees.
type Token struct {
	LN []int64
	Q  []mutex.ID
}

// Kind implements mutex.Message.
func (Token) Kind() string { return "suzuki.token" }

// seqVec is a sparse member-indexed sequence vector: one run of entries,
// sorted by member index, materialized only for members whose value has
// ever been set, so ranging over it walks member-index order by
// construction. Both RN and LN start as all-zero vectors of which only
// ever-requesting members deviate, so a node's footprint is O(requesters
// it has heard from), not O(N): the token-state memory wall at grid scale
// (DESIGN.md §14).
type seqVec struct {
	e []seqEntry
}

// seqEntry is member index i's value x.
type seqEntry struct {
	i int32
	x int64
}

// find returns where member index i is, or would be inserted, in e.
func (v *seqVec) find(i int32) (int, bool) {
	lo, hi := 0, len(v.e)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.e[mid].i < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(v.e) && v.e[lo].i == i
}

// get returns the value at member index i (zero when unmaterialized).
func (v *seqVec) get(i int32) int64 {
	if k, ok := v.find(i); ok {
		return v.e[k].x
	}
	return 0
}

// set stores the value at member index i, materializing the entry (an
// insert shift, once per member that ever requests since the last reset).
func (v *seqVec) set(i int32, x int64) {
	k, ok := v.find(i)
	if !ok {
		v.e = slices.Insert(v.e, k, seqEntry{i: i})
	}
	v.e[k].x = x
}

// raise stores x at member index i if it exceeds the value there, and
// returns the value there afterwards, in one search where get and set
// take two.
func (v *seqVec) raise(i int32, x int64) int64 {
	k, ok := v.find(i)
	if !ok {
		if x <= 0 {
			return 0
		}
		v.e = slices.Insert(v.e, k, seqEntry{i: i})
	}
	v.e[k].x = max(v.e[k].x, x)
	return v.e[k].x
}

// seek returns the value at member index i like get, but searches forward
// from entry *k and leaves *k there: a caller visiting member indices in
// increasing order, as a walk of another run does, passes over v once,
// where a get per index costs a binary search each.
func (v *seqVec) seek(k *int, i int32) int64 {
	for *k < len(v.e) && v.e[*k].i < i {
		*k++
	}
	if *k < len(v.e) && v.e[*k].i == i {
		return v.e[*k].x
	}
	return 0
}

// materialized returns the number of sparse entries (tests assert the
// bound: never more than the members that ever requested, plus self).
func (v *seqVec) materialized() int { return len(v.e) }

// reset drops all entries, returning the vector to all-zero; the backing
// array stays for the next token.
func (v *seqVec) reset() { v.e = v.e[:0] }

type node struct {
	cfg   mutex.Config
	self  int32 // index of Self in Members
	rn    seqVec
	state mutex.State
	token bool
	ln    seqVec     // meaningful only while token is true
	queue []mutex.ID // meaningful only while token is true
}

// New builds a Suzuki-Kasami instance.
func New(cfg mutex.Config) (mutex.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &node{
		cfg:  cfg,
		self: int32(cfg.Index(cfg.Self)),
	}
	if cfg.Self == cfg.Holder {
		n.token = true
	}
	return n, nil
}

func (n *node) Request() {
	if n.state != mutex.NoReq {
		panic(fmt.Sprintf("suzukikasami: Request in state %v", n.state))
	}
	n.state = mutex.Req
	if n.token {
		n.enterCS()
		return
	}
	seq := n.rn.get(n.self) + 1
	n.rn.set(n.self, seq)
	// One box for the broadcast: a Request passed by value would be boxed
	// again for every recipient.
	var req mutex.Message = Request{Seq: seq}
	for _, m := range n.cfg.Members {
		if m != n.cfg.Self {
			n.cfg.Env.Send(m, req)
		}
	}
}

func (n *node) Release() {
	if n.state != mutex.InCS {
		panic(fmt.Sprintf("suzukikasami: Release in state %v", n.state))
	}
	n.state = mutex.NoReq
	n.ln.set(n.self, n.rn.get(n.self))
	// Append every node with an outstanding request that is not queued
	// yet, scanning in member-index order (deliberately arrival-blind).
	// rn == ln+1 needs rn > 0, since LN holds copies of RN values and is
	// never negative, so only members with a materialized RN entry are
	// candidates, and RN's run visits them in the member order the dense
	// scan used, walking LN's run alongside.
	k := 0
	for _, r := range n.rn.e {
		if m := n.cfg.Members[r.i]; r.x == n.ln.seek(&k, r.i)+1 && !n.queued(m) {
			n.queue = append(n.queue, m)
		}
	}
	if len(n.queue) > 0 {
		head := n.queue[0]
		n.queue = n.queue[1:]
		n.sendToken(head)
	}
}

func (n *node) queued(id mutex.ID) bool {
	for _, q := range n.queue {
		if q == id {
			return true
		}
	}
	return false
}

func (n *node) sendToken(to mutex.ID) {
	// The wire token carries the dense LN array — the algorithm's
	// intrinsic O(N) payload, which the live codec encodes at 8 bytes an
	// entry — materialized here from the sparse state. Its contents are
	// identical to what a dense implementation would send: zeros for
	// members that never requested.
	ln := make([]int64, len(n.cfg.Members))
	for _, e := range n.ln.e {
		ln[e.i] = e.x
	}
	t := Token{
		LN: ln,
		Q:  append([]mutex.ID(nil), n.queue...),
	}
	n.token = false
	n.ln.reset()
	n.queue = nil
	n.cfg.Env.Send(to, t)
}

func (n *node) Deliver(from mutex.ID, m mutex.Message) {
	switch msg := m.(type) {
	case Request:
		n.onRequest(from, msg.Seq)
	case Token:
		n.onToken(msg)
	default:
		panic(fmt.Sprintf("suzukikasami: unexpected message %T", m))
	}
}

func (n *node) onRequest(from mutex.ID, seq int64) {
	fi := int32(n.cfg.Index(from))
	if fi < 0 {
		panic(fmt.Sprintf("suzukikasami: request from non-member %d", from))
	}
	rn := n.rn.raise(fi, seq)
	if !n.token || rn != n.ln.get(fi)+1 {
		return
	}
	switch n.state {
	case mutex.NoReq:
		// Idle holder with a fresh outstanding request: grant now.
		n.sendToken(from)
	case mutex.InCS:
		n.firePending()
	}
}

func (n *node) onToken(t Token) {
	if n.state != mutex.Req {
		panic(fmt.Sprintf("suzukikasami: token received in state %v", n.state))
	}
	n.token = true
	// The dense array is in member order, so its nonzero entries append
	// as a sorted run.
	n.ln.reset()
	for i, x := range t.LN {
		if x != 0 {
			n.ln.e = append(n.ln.e, seqEntry{i: int32(i), x: x})
		}
	}
	n.queue = append([]mutex.ID(nil), t.Q...)
	n.enterCS()
}

func (n *node) enterCS() {
	n.state = mutex.InCS
	if f := n.cfg.Callbacks.OnAcquire; f != nil {
		n.cfg.Env.Local(f)
	}
}

func (n *node) firePending() {
	if f := n.cfg.Callbacks.OnPending; f != nil {
		n.cfg.Env.Local(f)
	}
}

func (n *node) HasPending() bool {
	if !n.token {
		return false
	}
	if len(n.queue) > 0 {
		return true
	}
	// rn > ln needs rn > 0, so only members with a materialized RN entry
	// can have an outstanding request.
	k := 0
	for _, r := range n.rn.e {
		if r.i != n.self && r.x > n.ln.seek(&k, r.i) {
			return true
		}
	}
	return false
}

func (n *node) HoldsToken() bool   { return n.token }
func (n *node) State() mutex.State { return n.state }
