// Package raymond implements Raymond's token-based mutual exclusion
// algorithm on a static spanning tree (Raymond 1989).
//
// It is not one of the three algorithms the paper evaluates, but it is the
// intra-group algorithm of Housni-Trehel's hybrid scheme discussed in the
// related-work section, and this repository includes it both as an
// additional plug-in for the composition layer and as an ablation baseline.
//
// Every node keeps a holder pointer toward the token along a static tree
// (built here as a binary heap over the member list, rooted at the initial
// holder), a FIFO request queue of neighbours (possibly including itself),
// and an asked flag that suppresses duplicate requests to the current
// holder direction. Messages travel only between tree neighbours, giving
// O(log N) messages per critical section on balanced trees.
package raymond

import (
	"fmt"

	"gridmutex/internal/mutex"
)

// Request asks the holder-direction neighbour for the privilege.
type Request struct{}

// Kind implements mutex.Message.
func (Request) Kind() string { return "raymond.request" }

// Privilege transfers the token to a tree neighbour.
type Privilege struct{}

// Kind implements mutex.Message.
func (Privilege) Kind() string { return "raymond.privilege" }

type node struct {
	cfg    mutex.Config
	holder mutex.ID // tree neighbour toward the token; Self if held here
	reqQ   []mutex.ID
	asked  bool
	state  mutex.State
}

// New builds a Raymond instance. The spanning tree is a binary heap over
// cfg.Members re-rooted at cfg.Holder, so every participant derives an
// identical tree from identical configuration.
func New(cfg mutex.Config) (mutex.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &node{cfg: cfg}
	if cfg.Self == cfg.Holder {
		n.holder = cfg.Self
	} else {
		n.holder = parentOf(cfg)
	}
	return n, nil
}

// parentOf computes the tree parent of cfg.Self: members are laid out as a
// binary heap on logical indices, logical 0 being the initial holder.
func parentOf(cfg mutex.Config) mutex.ID {
	k := len(cfg.Members)
	holderIdx := cfg.Index(cfg.Holder)
	selfIdx := cfg.Index(cfg.Self)
	logical := (selfIdx - holderIdx + k) % k
	parentLogical := (logical - 1) / 2
	return cfg.Members[(parentLogical+holderIdx)%k]
}

func (n *node) Request() {
	if n.state != mutex.NoReq {
		panic(fmt.Sprintf("raymond: Request in state %v", n.state))
	}
	n.state = mutex.Req
	n.reqQ = append(n.reqQ, n.cfg.Self)
	n.assignPrivilege()
	n.makeRequest()
}

func (n *node) Release() {
	if n.state != mutex.InCS {
		panic(fmt.Sprintf("raymond: Release in state %v", n.state))
	}
	n.state = mutex.NoReq
	n.assignPrivilege()
	n.makeRequest()
}

func (n *node) Deliver(from mutex.ID, m mutex.Message) {
	switch m.(type) {
	case Request:
		n.reqQ = append(n.reqQ, from)
		if n.holder == n.cfg.Self && n.state == mutex.InCS {
			n.firePending()
		}
		n.assignPrivilege()
		n.makeRequest()
	case Privilege:
		n.holder = n.cfg.Self
		n.asked = false
		n.assignPrivilege()
		n.makeRequest()
	default:
		panic(fmt.Sprintf("raymond: unexpected message %T", m))
	}
}

// assignPrivilege hands the token to the head of the queue if this node
// holds it and is not using it.
func (n *node) assignPrivilege() {
	if n.holder != n.cfg.Self || n.state == mutex.InCS || len(n.reqQ) == 0 {
		return
	}
	head := n.reqQ[0]
	n.reqQ = n.reqQ[1:]
	if head == n.cfg.Self {
		n.enterCS()
		return
	}
	n.holder = head
	n.asked = false
	n.cfg.Env.Send(head, Privilege{})
}

// makeRequest forwards a request toward the holder if one is needed and
// none is outstanding.
func (n *node) makeRequest() {
	if n.holder == n.cfg.Self || len(n.reqQ) == 0 || n.asked {
		return
	}
	n.asked = true
	n.cfg.Env.Send(n.holder, Request{})
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
	if n.holder != n.cfg.Self {
		return false
	}
	for _, q := range n.reqQ {
		if q != n.cfg.Self {
			return true
		}
	}
	return false
}

func (n *node) HoldsToken() bool   { return n.holder == n.cfg.Self }
func (n *node) State() mutex.State { return n.state }
