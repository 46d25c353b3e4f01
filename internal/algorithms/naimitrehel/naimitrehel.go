// Package naimitrehel implements the Naimi-Trehel token- and tree-based
// mutual exclusion algorithm (Naimi, Trehel, Arnold 1996), as described in
// section 2.2 of the paper.
//
// Each node keeps two pointers:
//
//   - father ("last"): the probable owner of the token. The father pointers
//     form a dynamic logical tree whose root is the last node that will
//     obtain the token among the current requesters; requests are forwarded
//     along father pointers and reverse the path as they go.
//   - next: the distributed queue of unsatisfied requests. When a root that
//     cannot grant immediately receives a request, it records the requester
//     in next and hands the token over on release.
//
// The average number of messages per critical section is O(log N); granting
// the token always takes a single message.
package naimitrehel

import (
	"fmt"

	"gridmutex/internal/mutex"
)

// Request is the message forwarded along the father tree; Origin is the
// requesting node on whose behalf it travels.
type Request struct {
	Origin mutex.ID
}

// Kind implements mutex.Message.
func (Request) Kind() string { return "naimi.request" }

// Size implements mutex.Message: header plus one node identifier.
func (Request) Size() int { return 20 }

// Token is the token-granting message.
type Token struct{}

// Kind implements mutex.Message.
func (Token) Kind() string { return "naimi.token" }

// Size implements mutex.Message.
func (Token) Size() int { return 16 }

// node keeps only what the algorithm reads after New: the member list and
// the initial holder are consulted once, to set father and token.
type node struct {
	env    mutex.Env
	cbs    mutex.Callbacks
	self   mutex.ID
	father mutex.ID // probable owner; None when this node is the root
	next   mutex.ID // next node to grant the token to; None if none
	token  bool
	state  mutex.State
}

// New builds a Naimi-Trehel instance.
func New(cfg mutex.Config) (mutex.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &node{env: cfg.Env, cbs: cfg.Callbacks, self: cfg.Self, next: mutex.None}
	if cfg.Self == cfg.Holder {
		n.father = mutex.None // initial root holds the token idle
		n.token = true
	} else {
		n.father = cfg.Holder
	}
	return n, nil
}

func (n *node) Request() {
	if n.state != mutex.NoReq {
		panic(fmt.Sprintf("naimitrehel: Request in state %v", n.state))
	}
	n.state = mutex.Req
	if n.token {
		n.enterCS()
		return
	}
	// Ask the probable owner and become the new root.
	n.env.Send(n.father, Request{Origin: n.self})
	n.father = mutex.None
}

func (n *node) Release() {
	if n.state != mutex.InCS {
		panic(fmt.Sprintf("naimitrehel: Release in state %v", n.state))
	}
	n.state = mutex.NoReq
	if n.next != mutex.None {
		n.token = false
		n.env.Send(n.next, Token{})
		n.next = mutex.None
	}
}

func (n *node) Deliver(from mutex.ID, m mutex.Message) {
	switch msg := m.(type) {
	case Request:
		n.onRequest(msg.Origin, m)
	case Token:
		n.onToken()
	default:
		panic(fmt.Sprintf("naimitrehel: unexpected message %T", m))
	}
}

// onRequest handles origin's request, which arrived as m. A node that is
// not the root forwards m itself: boxing Request{origin} again would
// allocate the value m already holds.
func (n *node) onRequest(origin mutex.ID, m mutex.Message) {
	if n.father == mutex.None {
		// This node is the root: it either grants directly or queues
		// the requester behind itself.
		if n.state == mutex.NoReq {
			n.token = false
			n.env.Send(origin, Token{})
		} else {
			if n.next != mutex.None {
				// A root queues at most one requester before the
				// path reversal below redirects later requests.
				panic("naimitrehel: second pending next at root")
			}
			n.next = origin
			if n.state == mutex.InCS {
				n.firePending()
			}
		}
	} else {
		n.env.Send(n.father, m)
	}
	// Path reversal: the requester is the new probable owner.
	n.father = origin
}

func (n *node) onToken() {
	if n.state != mutex.Req {
		panic(fmt.Sprintf("naimitrehel: token received in state %v", n.state))
	}
	n.token = true
	n.enterCS()
}

func (n *node) enterCS() {
	n.state = mutex.InCS
	if f := n.cbs.OnAcquire; f != nil {
		n.env.Local(f)
	}
}

func (n *node) firePending() {
	if f := n.cbs.OnPending; f != nil {
		n.env.Local(f)
	}
}

func (n *node) HasPending() bool   { return n.next != mutex.None }
func (n *node) HoldsToken() bool   { return n.token }
func (n *node) State() mutex.State { return n.state }

// Father exposes the current probable-owner pointer for tests and tracing.
func (n *node) Father() mutex.ID { return n.father }

// Next exposes the next pointer for tests and tracing.
func (n *node) Next() mutex.ID { return n.next }
