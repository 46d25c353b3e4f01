// Package ricartagrawala implements the Ricart-Agrawala permission-based
// mutual exclusion algorithm (Ricart, Agrawala 1981).
//
// Unlike the token algorithms, there is no circulating object: a requester
// timestamps its request with a Lamport clock, broadcasts it, and enters
// the critical section after collecting a reply from every other
// participant. A participant defers its reply while it is inside the
// critical section, or while its own outstanding request has priority
// (smaller timestamp, ties broken by ID); deferred replies are sent on
// release. Each critical section costs exactly 2(N-1) messages.
//
// The paper's composition approach is described for token algorithms, but
// its contract is satisfied here too — OnPending fires when a reply is
// deferred inside the critical section, and HasPending reports deferred
// replies — so Ricart-Agrawala plugs into either hierarchy level. That
// reproduces the flavour of Housni-Trehel's hybrid (Raymond inside groups,
// Ricart-Agrawala between groups) discussed in the related-work section.
//
// There is no meaningful "initial holder" in a permission-based algorithm:
// Config.Holder is accepted (the shared contract validates it) but ignored
// — the first acquisition, including a coordinator's boot acquisition,
// runs a normal request round. Granting it for free would be unsound: it
// is only safe if it happens-before every other request, which a library
// cannot assume of its callers.
package ricartagrawala

import (
	"fmt"

	"gridmutex/internal/mutex"
)

// Request asks every other participant for permission; Clock is the
// sender's Lamport timestamp.
type Request struct {
	Clock int64
}

// Kind implements mutex.Message.
func (Request) Kind() string { return "ra.request" }

// Reply grants permission to the requester.
type Reply struct{}

// Kind implements mutex.Message.
func (Reply) Kind() string { return "ra.reply" }

type node struct {
	cfg      mutex.Config
	clock    int64
	myTS     int64 // timestamp of the outstanding request
	state    mutex.State
	replies  int
	deferred []mutex.ID
}

// New builds a Ricart-Agrawala instance.
func New(cfg mutex.Config) (mutex.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &node{cfg: cfg}, nil
}

func (n *node) Request() {
	if n.state != mutex.NoReq {
		panic(fmt.Sprintf("ricartagrawala: Request in state %v", n.state))
	}
	n.state = mutex.Req
	if len(n.cfg.Members) == 1 {
		n.enterCS()
		return
	}
	n.clock++
	n.myTS = n.clock
	n.replies = 0
	req := Request{Clock: n.myTS}
	for _, m := range n.cfg.Members {
		if m != n.cfg.Self {
			n.cfg.Env.Send(m, req)
		}
	}
}

func (n *node) Release() {
	if n.state != mutex.InCS {
		panic(fmt.Sprintf("ricartagrawala: Release in state %v", n.state))
	}
	n.state = mutex.NoReq
	for _, d := range n.deferred {
		n.cfg.Env.Send(d, Reply{})
	}
	n.deferred = n.deferred[:0]
}

func (n *node) Deliver(from mutex.ID, m mutex.Message) {
	switch msg := m.(type) {
	case Request:
		n.onRequest(from, msg.Clock)
	case Reply:
		n.onReply()
	default:
		panic(fmt.Sprintf("ricartagrawala: unexpected message %T", m))
	}
}

func (n *node) onRequest(from mutex.ID, ts int64) {
	if ts > n.clock {
		n.clock = ts
	}
	granting := false
	switch n.state {
	case mutex.NoReq:
		granting = true
	case mutex.Req:
		// Lexicographic (timestamp, id) priority; the smaller wins.
		if ts < n.myTS || (ts == n.myTS && from < n.cfg.Self) {
			granting = true
		}
	case mutex.InCS:
		granting = false
	}
	if granting {
		n.cfg.Env.Send(from, Reply{})
		return
	}
	n.deferred = append(n.deferred, from)
	if n.state == mutex.InCS {
		n.firePending()
	}
}

func (n *node) onReply() {
	if n.state != mutex.Req {
		panic(fmt.Sprintf("ricartagrawala: reply received in state %v", n.state))
	}
	n.replies++
	if n.replies == len(n.cfg.Members)-1 {
		n.enterCS()
	}
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

func (n *node) HasPending() bool { return len(n.deferred) > 0 }

// HoldsToken reports whether this participant could enter (or is in) the
// critical section without communicating. Permission-based algorithms
// have no token; only the occupant qualifies.
func (n *node) HoldsToken() bool { return n.state == mutex.InCS }

func (n *node) State() mutex.State { return n.state }
