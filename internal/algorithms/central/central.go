// Package central implements a centralized mutual exclusion algorithm: one
// fixed server (the initial holder) grants the critical section to clients
// in FIFO order.
//
// The related-work section of the paper cites hybrid schemes (Madhuram and
// Kumar 1994) that use a centralized algorithm at the lower level; this
// package provides that building block as an extra plug-in and baseline.
// A critical section costs at most 3 messages (request, grant, release) and
// the server is a serial bottleneck — exactly the properties ablation
// experiments want to contrast with the distributed algorithms.
package central

import (
	"fmt"

	"gridmutex/internal/mutex"
)

// Request asks the server for the critical section.
type Request struct{}

// Kind implements mutex.Message.
func (Request) Kind() string { return "central.request" }

// Grant gives the requester the critical section.
type Grant struct{}

// Kind implements mutex.Message.
func (Grant) Kind() string { return "central.grant" }

// ReleaseMsg tells the server the critical section is free again.
type ReleaseMsg struct{}

// Kind implements mutex.Message.
func (ReleaseMsg) Kind() string { return "central.release" }

// Nudge tells the current grantee that other requests are queued at the
// server. Classical centralized mutual exclusion does not need it, but the
// composition layer's OnPending contract does: a coordinator holding the
// critical section must learn that someone is waiting.
type Nudge struct{}

// Kind implements mutex.Message.
func (Nudge) Kind() string { return "central.nudge" }

type node struct {
	cfg     mutex.Config
	server  mutex.ID
	state   mutex.State
	pending bool // grantee side: server signalled waiting requests
	// Server-only fields.
	granted mutex.ID // node currently in CS; None if free
	queue   []mutex.ID
	nudged  bool // current grantee has been told about the queue
}

// New builds a centralized instance; cfg.Holder acts as the server.
func New(cfg mutex.Config) (mutex.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &node{cfg: cfg, server: cfg.Holder, granted: mutex.None}, nil
}

func (n *node) isServer() bool { return n.cfg.Self == n.server }

func (n *node) Request() {
	if n.state != mutex.NoReq {
		panic(fmt.Sprintf("central: Request in state %v", n.state))
	}
	n.state = mutex.Req
	if n.isServer() {
		n.serverRequest(n.cfg.Self)
		return
	}
	n.cfg.Env.Send(n.server, Request{})
}

func (n *node) Release() {
	if n.state != mutex.InCS {
		panic(fmt.Sprintf("central: Release in state %v", n.state))
	}
	n.state = mutex.NoReq
	n.pending = false
	if n.isServer() {
		n.serverRelease()
		return
	}
	n.cfg.Env.Send(n.server, ReleaseMsg{})
}

func (n *node) Deliver(from mutex.ID, m mutex.Message) {
	switch m.(type) {
	case Request:
		if !n.isServer() {
			panic("central: request delivered to non-server")
		}
		n.serverRequest(from)
	case ReleaseMsg:
		if !n.isServer() {
			panic("central: release delivered to non-server")
		}
		if from != n.granted {
			panic(fmt.Sprintf("central: release from %d but CS granted to %d", from, n.granted))
		}
		n.serverRelease()
	case Grant:
		if n.state != mutex.Req {
			panic(fmt.Sprintf("central: grant received in state %v", n.state))
		}
		n.pending = false
		n.enterCS()
	case Nudge:
		// May race with our own release; only meaningful if we still
		// hold the critical section.
		if n.state == mutex.InCS {
			n.pending = true
			n.firePending()
		}
	default:
		panic(fmt.Sprintf("central: unexpected message %T", m))
	}
}

// serverRequest processes a request at the server, from a client or from
// the server's own Request call.
func (n *node) serverRequest(who mutex.ID) {
	if n.granted == mutex.None {
		n.grant(who)
		return
	}
	n.queue = append(n.queue, who)
	n.maybeNudge()
}

// serverRelease frees the critical section and serves the queue head.
func (n *node) serverRelease() {
	n.granted = mutex.None
	if len(n.queue) == 0 {
		return
	}
	head := n.queue[0]
	n.queue = n.queue[1:]
	n.grant(head)
}

func (n *node) grant(who mutex.ID) {
	n.granted = who
	n.nudged = false
	if who == n.cfg.Self {
		n.pending = false
		n.enterCS()
	} else {
		n.cfg.Env.Send(who, Grant{})
	}
	n.maybeNudge()
}

// maybeNudge informs the current grantee, once per grant, that requests are
// queued behind it.
func (n *node) maybeNudge() {
	if n.granted == mutex.None || len(n.queue) == 0 || n.nudged {
		return
	}
	n.nudged = true
	if n.granted == n.cfg.Self {
		n.pending = true
		n.firePending()
	} else {
		n.cfg.Env.Send(n.granted, Nudge{})
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

func (n *node) HasPending() bool {
	if n.isServer() {
		// The queue is never non-empty while the section is free, so
		// a non-empty queue means this node's own possession (or a
		// client's) blocks the queued requesters.
		return len(n.queue) > 0 && n.granted == n.cfg.Self
	}
	return n.pending && n.state == mutex.InCS
}

// HoldsToken reports whether this node could enter the critical section
// without communicating: the server while the section is free or its own,
// or any node currently inside the critical section.
func (n *node) HoldsToken() bool {
	if n.isServer() {
		return n.granted == mutex.None || n.granted == n.cfg.Self
	}
	return n.state == mutex.InCS
}

func (n *node) State() mutex.State { return n.state }
