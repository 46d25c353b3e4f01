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
// RN and LN are arrays of N integers indexed like Config.Members, as the
// 1985 algorithm defines them, allocated on a node's first Request or
// request arrival.
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

type node struct {
	cfg   mutex.Config
	self  int // index of Self in Members
	rn    []int64
	state mutex.State
	token bool
	ln    []int64    // meaningful only while token is true
	queue []mutex.ID // meaningful only while token is true
}

// New builds a Suzuki-Kasami instance.
func New(cfg mutex.Config) (mutex.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &node{
		cfg:  cfg,
		self: cfg.Index(cfg.Self),
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
	n.alloc()
	if n.token {
		n.enterCS()
		return
	}
	n.rn[n.self]++
	seq := n.rn[n.self]
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
	n.ln[n.self] = n.rn[n.self]
	// Append every node with an outstanding request that is not queued
	// yet, scanning in member-index order (deliberately arrival-blind).
	for i, r := range n.rn {
		if m := n.cfg.Members[i]; r == n.ln[i]+1 && !n.queued(m) {
			n.queue = append(n.queue, m)
		}
	}
	if len(n.queue) > 0 {
		head := n.queue[0]
		n.queue = n.queue[1:]
		n.sendToken(head)
	}
}

// alloc allocates RN and LN together on the node's first use, so that a
// built deployment holds neither.
func (n *node) alloc() {
	if n.rn == nil {
		v := make([]int64, 2*len(n.cfg.Members))
		n.rn, n.ln = v[:len(v)/2:len(v)/2], v[len(v)/2:]
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
	t := Token{
		LN: slices.Clone(n.ln),
		Q:  append([]mutex.ID(nil), n.queue...),
	}
	n.token = false
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
	fi := n.cfg.Index(from)
	if fi < 0 {
		panic(fmt.Sprintf("suzukikasami: request from non-member %d", from))
	}
	n.alloc()
	n.rn[fi] = max(n.rn[fi], seq)
	if !n.token || n.rn[fi] != n.ln[fi]+1 {
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
	if len(t.LN) != len(n.ln) {
		panic(fmt.Sprintf("suzukikasami: token with %d LN entries among %d members", len(t.LN), len(n.ln)))
	}
	n.token = true
	copy(n.ln, t.LN)
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
	for i, r := range n.rn {
		if i != n.self && r > n.ln[i] {
			return true
		}
	}
	return false
}

func (n *node) HoldsToken() bool   { return n.token }
func (n *node) State() mutex.State { return n.state }
