// Package mutex defines the abstractions shared by every token-based mutual
// exclusion algorithm in this repository.
//
// An algorithm instance is a reactive state machine: it never blocks and
// never spawns goroutines. It is driven by three entry points — Request,
// Release and Deliver — and produces effects only through its Env (sending
// messages, scheduling local continuations) and its callbacks (OnAcquire,
// OnPending). This makes one implementation runnable unchanged on the
// discrete-event simulator, on in-process channels, and over UDP.
//
// Entry points and callbacks of one instance must be invoked serially: on
// the simulator this is automatic, on live transports a per-process mailbox
// provides it. Callbacks are always dispatched through Env.Local rather
// than invoked synchronously, so an instance is never re-entered from
// within one of its own handlers.
package mutex

import (
	"fmt"
	"slices"
)

// ID identifies a participant of one algorithm instance. IDs are unique per
// instance (the composition layer maps them onto processes).
type ID int32

// None is the sentinel for "no node" (an unset next/father pointer).
const None ID = -1

// Message is a unit of algorithm communication. Implementations are plain
// data structs; they must be self-contained values (no pointers shared with
// sender state) because transports may retain or re-encode them.
type Message interface {
	// Kind returns a short stable name used for tracing and counters,
	// e.g. "ring.request".
	Kind() string
	// Size returns the modeled wire size in bytes, used by the message
	// accounting the paper reports (Suzuki-Kasami's token is O(N)).
	Size() int
}

// Env is what an instance sees of the outside world.
type Env interface {
	// Send transmits m to participant to of the same instance. Delivery
	// is reliable and FIFO per (sender, receiver) pair.
	Send(to ID, m Message)
	// Local schedules f to run after the current handler returns, on the
	// same serial context as the instance's handlers. All callback
	// invocations go through Local.
	Local(f func())
}

// State is the classical mutual exclusion state of a participant.
type State uint8

const (
	// NoReq: not interested in the critical section (may hold the token
	// idle).
	NoReq State = iota
	// Req: waiting for the token.
	Req
	// InCS: executing the critical section.
	InCS
)

// String returns the conventional name of the state.
func (s State) String() string {
	switch s {
	case NoReq:
		return "NO_REQ"
	case Req:
		return "REQ"
	case InCS:
		return "CS"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Callbacks are the upcalls from an instance to its owner. Both are invoked
// via Env.Local. Either may be nil.
type Callbacks struct {
	// OnAcquire fires when a Request is granted: the node now holds the
	// token and is in the critical section.
	OnAcquire func()
	// OnPending fires when this node — as current or imminent token
	// holder — learns that at least one other participant is waiting for
	// the token and the grant is deferred until this node releases. It
	// is the one extension over the classical API that hierarchical
	// composition needs: a coordinator holding a token "in CS" must be
	// told that somebody wants it. Spurious invocations are allowed;
	// owners should treat it as a nudge and consult HasPending.
	OnPending func()
}

// Config carries everything needed to construct an algorithm instance.
type Config struct {
	// Self is this participant's ID.
	Self ID
	// Members lists all participants of the instance, including Self.
	// Every member must use the same order (algorithms derive ring order
	// and array indices from it).
	Members []ID
	// Holder is the participant that holds the token initially (idle).
	Holder ID
	// Env provides communication and local scheduling.
	Env Env
	// Callbacks receive acquire/pending upcalls.
	Callbacks Callbacks
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Env == nil {
		return fmt.Errorf("mutex: nil Env")
	}
	if len(c.Members) == 0 {
		return fmt.Errorf("mutex: no members")
	}
	// Every instance validates its whole member list, and the builders
	// hand out ascending lists: such a list holds no duplicate, so one pass
	// checks it without allocating. Any other list is checked on a sorted
	// copy, on the stack up to 16 members (a map per instance made a flat
	// deployment O(N²) in allocation). Only a rejected list pays for the
	// scan that names the first repeat in list order.
	sorted := c.Members
	if !ascending(sorted) {
		var buf [16]ID
		sorted = append(buf[:0], c.Members...)
		slices.Sort(sorted)
		if !ascending(sorted) {
			return fmt.Errorf("mutex: duplicate member %d", firstRepeat(c.Members))
		}
	}
	if _, ok := slices.BinarySearch(sorted, c.Self); !ok {
		return fmt.Errorf("mutex: self %d not in members", c.Self)
	}
	if _, ok := slices.BinarySearch(sorted, c.Holder); !ok {
		return fmt.Errorf("mutex: holder %d not in members", c.Holder)
	}
	return nil
}

// ascending reports whether ids is strictly ascending: for a sorted list,
// whether it is free of duplicates.
func ascending(ids []ID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}

// firstRepeat returns the first member of ids that an earlier one equals.
func firstRepeat(ids []ID) ID {
	for j, m := range ids {
		if slices.Contains(ids[:j], m) {
			return m
		}
	}
	return None
}

// Index returns the position of id in Members, or -1.
func (c Config) Index(id ID) int {
	for i, m := range c.Members {
		if m == id {
			return i
		}
	}
	return -1
}

// Instance is a participant-side endpoint of one mutual exclusion
// algorithm.
//
// Protocol, from the owner's point of view:
//
//	Request() ... OnAcquire fires ... critical section ... Release()
//
// Request must not be called while a request is outstanding or the node is
// in the critical section; Release must only be called from the critical
// section. Instances panic on protocol violations — they indicate a bug in
// the owner, not a runtime condition to tolerate.
type Instance interface {
	// Request asks for the critical section.
	Request()
	// Release leaves the critical section.
	Release()
	// Deliver hands the instance a message from participant from.
	Deliver(from ID, m Message)
	// HasPending reports whether this node knows of other participants'
	// requests that its own token possession is blocking.
	HasPending() bool
	// HoldsToken reports whether the token is currently at this node.
	HoldsToken() bool
	// State returns the classical mutual exclusion state of this node.
	State() State
}

// Factory builds an algorithm instance from a configuration.
type Factory func(Config) (Instance, error)

// Handler receives messages addressed to a process.
type Handler interface {
	Deliver(from ID, m Message)
}

// Fabric is a message network that deployment builders can wire processes
// onto: the discrete-event simulator's network, the in-process goroutine
// network, and the UDP network all implement it.
type Fabric interface {
	// Endpoint returns the Env bound to logical process id.
	Endpoint(id ID) Env
	// RegisterAt installs the handler for logical process id hosted on
	// physical topology node.
	RegisterAt(id ID, node int, h Handler)
}
