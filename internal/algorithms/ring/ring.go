// Package ring implements Martin's token-based mutual exclusion algorithm
// on a logical ring (Martin 1985), as described in section 2.1 of the paper.
//
// Nodes are arranged in the ring order given by Config.Members. Requests
// travel in one direction (to the successor) until they reach the token
// holder; the token travels in the opposite direction (to the predecessor)
// back to the requester, satisfying the pending requests of every node it
// crosses on the way.
//
// The paper's optimization is included: a node that is itself requesting
// (or that has already forwarded a request) does not forward further
// requests — it only remembers that, once served, it must pass the token on
// to its predecessor. With x nodes between requester and holder, a critical
// section costs 2(x+1) messages, i.e. N on average.
package ring

import (
	"fmt"

	"gridmutex/internal/mutex"
)

// Request asks for the token; it travels from predecessor to successor and
// carries no payload (the receiver serves its predecessor side as a whole).
type Request struct{}

// Kind implements mutex.Message.
func (Request) Kind() string { return "martin.request" }

// Size implements mutex.Message.
func (Request) Size() int { return 16 }

// Token grants the right to enter the critical section; it travels from
// successor to predecessor.
type Token struct{}

// Kind implements mutex.Message.
func (Token) Kind() string { return "martin.token" }

// Size implements mutex.Message.
func (Token) Size() int { return 16 }

type node struct {
	cfg    mutex.Config
	succ   mutex.ID
	pred   mutex.ID
	token  bool
	state  mutex.State
	passOn bool // a request from the predecessor side awaits the token
}

// New builds a Martin ring instance. Ring order is the order of
// cfg.Members.
func New(cfg mutex.Config) (mutex.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	idx := cfg.Index(cfg.Self)
	k := len(cfg.Members)
	return &node{
		cfg:   cfg,
		succ:  cfg.Members[(idx+1)%k],
		pred:  cfg.Members[(idx-1+k)%k],
		token: cfg.Self == cfg.Holder,
	}, nil
}

func (n *node) Request() {
	if n.state != mutex.NoReq {
		panic(fmt.Sprintf("ring: Request in state %v", n.state))
	}
	n.state = mutex.Req
	if n.token {
		n.enterCS()
		return
	}
	n.cfg.Env.Send(n.succ, Request{})
}

func (n *node) Release() {
	if n.state != mutex.InCS {
		panic(fmt.Sprintf("ring: Release in state %v", n.state))
	}
	n.state = mutex.NoReq
	if n.passOn {
		n.sendTokenBack()
	}
}

func (n *node) Deliver(from mutex.ID, m mutex.Message) {
	switch m.(type) {
	case Request:
		n.onRequest()
	case Token:
		n.onToken()
	default:
		panic(fmt.Sprintf("ring: unexpected message %T", m))
	}
}

// onRequest handles a request arriving from the predecessor.
func (n *node) onRequest() {
	switch {
	case n.token && n.state == mutex.NoReq:
		// Idle holder: hand the token straight back.
		n.token = false
		n.cfg.Env.Send(n.pred, Token{})
	case n.token:
		// Holder inside the critical section: serve on release.
		if !n.passOn {
			n.passOn = true
			n.firePending()
		}
	case n.passOn || n.state == mutex.Req:
		// Already requesting or already forwarded: the token will
		// pass through here anyway; absorb the request.
		n.passOn = true
	default:
		// Disinterested node: forward toward the holder and remember
		// to pass the token back through.
		n.passOn = true
		n.cfg.Env.Send(n.succ, Request{})
	}
}

// onToken handles the token arriving from the successor.
func (n *node) onToken() {
	if n.token {
		panic("ring: duplicate token")
	}
	n.token = true
	if n.state == mutex.Req {
		n.enterCS()
		return
	}
	if n.passOn {
		n.sendTokenBack()
		return
	}
	// A request and the token crossed on a link: the request went the
	// long way around the ring and a pass-on chain delivered the token
	// to the end of that chain. The token parks here idle; the next
	// request travelling the ring stops at it. The crossed request leaves
	// passOn flags that the token follows a lap later, and at zero jitter
	// that chase never ends: ROADMAP item 1 has a 3-node input and the fix.
}

func (n *node) sendTokenBack() {
	n.token = false
	n.passOn = false
	n.cfg.Env.Send(n.pred, Token{})
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

func (n *node) HasPending() bool   { return n.passOn }
func (n *node) HoldsToken() bool   { return n.token }
func (n *node) State() mutex.State { return n.state }
