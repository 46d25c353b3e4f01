// Package algotest provides World, a hand-stepped fabric for white-box
// protocol tests: sends queue instead of being delivered, and the test
// chooses which message or local callback runs next. Algorithm unit tests,
// schedule exploration (internal/explore) and the wire round-trip tests
// build on it; every simulated run, the algorithm property tests included,
// is assembled by internal/run instead.
package algotest

import (
	"fmt"

	"gridmutex/internal/mutex"
)

// Sent is a recorded message transmission.
type Sent struct {
	From, To mutex.ID
	Msg      mutex.Message
}

// World is a hand-stepped execution environment for white-box protocol
// tests: every Send is queued instead of delivered, and tests choose when
// (and in which order) messages and local callbacks run. This makes
// adversarial interleavings — crossing messages, delayed grants —
// constructible deterministically.
type World struct {
	instances map[mutex.ID]mutex.Handler
	inflight  []Sent
	locals    []func()
	log       []Sent // every send ever made, for assertions
	down      map[mutex.ID]bool
	isolated  mutex.ID // single-node partition cut, valid while cut is true
	cut       bool
}

// World is a mutex.Fabric, so deployment builders (core.BuildComposed and
// friends) can be wired directly onto it and hand-stepped.
var _ mutex.Fabric = (*World)(nil)

// NewWorld returns an empty world.
func NewWorld() *World {
	return &World{instances: make(map[mutex.ID]mutex.Handler)}
}

// Env returns the mutex.Env to configure an instance with, bound to self.
func (w *World) Env(self mutex.ID) mutex.Env {
	return &worldEnv{w: w, self: self}
}

// Add registers a message handler — usually a constructed algorithm
// instance, for compositions a core.Process — under its ID.
func (w *World) Add(id mutex.ID, h mutex.Handler) {
	if _, dup := w.instances[id]; dup {
		panic(fmt.Sprintf("algotest: instance %d added twice", id))
	}
	w.instances[id] = h
}

// Endpoint implements mutex.Fabric.
func (w *World) Endpoint(id mutex.ID) mutex.Env { return w.Env(id) }

// RegisterAt implements mutex.Fabric. The world has no notion of placement
// or latency, so the topology node is ignored.
func (w *World) RegisterAt(id mutex.ID, _ int, h mutex.Handler) { w.Add(id, h) }

// Build constructs and registers an instance for every listed member with
// the shared holder, returning them in member order.
func (w *World) Build(factory mutex.Factory, members []mutex.ID, holder mutex.ID, cb func(self mutex.ID) mutex.Callbacks) ([]mutex.Instance, error) {
	out := make([]mutex.Instance, len(members))
	for i, id := range members {
		var cbs mutex.Callbacks
		if cb != nil {
			cbs = cb(id)
		}
		inst, err := factory(mutex.Config{
			Self: id, Members: members, Holder: holder,
			Env: w.Env(id), Callbacks: cbs,
		})
		if err != nil {
			return nil, err
		}
		w.Add(id, inst)
		out[i] = inst
	}
	return out, nil
}

type worldEnv struct {
	w    *World
	self mutex.ID
}

func (e *worldEnv) Send(to mutex.ID, m mutex.Message) {
	if e.w.down[e.self] {
		return // a crashed process emits nothing
	}
	s := Sent{From: e.self, To: to, Msg: m}
	e.w.inflight = append(e.w.inflight, s)
	e.w.log = append(e.w.log, s)
}

func (e *worldEnv) Local(f func()) { e.w.locals = append(e.w.locals, f) }

// Settle runs queued local callbacks (including ones queued while
// settling) and returns how many ran.
func (w *World) Settle() int {
	n := 0
	for len(w.locals) > 0 {
		f := w.locals[0]
		w.locals = w.locals[1:]
		f()
		n++
	}
	return n
}

// Inflight returns the currently undelivered messages in send order.
func (w *World) Inflight() []Sent { return append([]Sent(nil), w.inflight...) }

// Log returns every message sent since the world was created.
func (w *World) Log() []Sent { return append([]Sent(nil), w.log...) }

// DeliverNext pops the oldest in-flight message and delivers it, settling
// local callbacks first and afterwards. It reports whether a message was
// delivered.
func (w *World) DeliverNext() bool {
	w.Settle()
	if len(w.inflight) == 0 {
		return false
	}
	s := w.inflight[0]
	w.inflight = w.inflight[1:]
	w.deliver(s)
	w.Settle()
	return true
}

// DeliverAt pops the in-flight message at index i (into the current
// Inflight order) and delivers it — the hook for building reorderings.
func (w *World) DeliverAt(i int) {
	w.Settle()
	s := w.inflight[i]
	w.inflight = append(w.inflight[:i], w.inflight[i+1:]...)
	w.deliver(s)
	w.Settle()
}

// DuplicateAt re-enqueues a copy of the in-flight message at index i (into
// the current Inflight order) at the tail of the queue without delivering
// it: the original still arrives first on its link, the copy arrives again
// later — the duplication fault of an at-least-once network. The copy is
// not recorded in the log (it is not a send).
func (w *World) DuplicateAt(i int) {
	w.Settle()
	w.inflight = append(w.inflight, w.inflight[i])
}

// DropAt removes the in-flight message at index i without delivering it —
// the loss fault of a best-effort network.
func (w *World) DropAt(i int) {
	w.Settle()
	w.inflight = append(w.inflight[:i], w.inflight[i+1:]...)
}

// Crash fail-stops a process: in-flight messages addressed to it are
// purged, future sends from it are suppressed, and late deliveries to it
// are discarded. Messages it already sent stay in flight — they are on
// the wire, exactly as in simnet's fail-stop model — so a token emitted
// just before the crash still arrives. There is no restart.
func (w *World) Crash(id mutex.ID) {
	if w.down == nil {
		w.down = make(map[mutex.ID]bool)
	}
	w.down[id] = true
	kept := w.inflight[:0]
	for _, s := range w.inflight {
		if s.To != id {
			kept = append(kept, s)
		}
	}
	w.inflight = kept
}

// Down reports whether a process has crashed.
func (w *World) Down(id mutex.ID) bool { return w.down[id] }

// Restart clears a process's crashed state: deliveries reach it again and
// its sends go out again. In-flight messages still addressed to it are
// purged — they were sent to the previous incarnation, and the recovery
// layer's epoch fence discards exactly those on rejoin (a pre-crash token
// grant must not land on an amnesiac instance). Like simnet, the world
// only restores connectivity — the amnesiac protocol state is the
// caller's business (see Replace).
func (w *World) Restart(id mutex.ID) {
	delete(w.down, id)
	kept := w.inflight[:0]
	for _, s := range w.inflight {
		if s.To != id {
			kept = append(kept, s)
		}
	}
	w.inflight = kept
}

// Replace swaps the handler registered under id — the restart hook: a
// revived process comes back with a freshly built (amnesiac) instance,
// not the state it crashed with.
func (w *World) Replace(id mutex.ID, h mutex.Handler) {
	if _, ok := w.instances[id]; !ok {
		panic(fmt.Sprintf("algotest: Replace of unregistered instance %d", id))
	}
	w.instances[id] = h
}

// PurgeInflight discards every in-flight message undelivered — the epoch
// fence: a resync epoch invalidates all traffic of the previous epoch.
func (w *World) PurgeInflight() { w.inflight = nil }

// Isolate cuts a single node off from everyone else: messages crossing
// the cut in either direction are discarded at delivery time (the
// in-flight queue is untouched — a message already on the wire dies only
// when it would arrive during the cut, exactly like simnet's
// delivery-time classification). One cut at a time.
func (w *World) Isolate(id mutex.ID) {
	w.isolated = id
	w.cut = true
}

// Heal removes the active cut; messages still in flight deliver normally.
func (w *World) Heal() { w.cut = false }

// Isolated returns the currently cut-off node, if any.
func (w *World) Isolated() (mutex.ID, bool) { return w.isolated, w.cut }

func (w *World) deliver(s Sent) {
	if w.down[s.To] {
		return // messages to a crashed process vanish
	}
	if w.cut && (s.From == w.isolated) != (s.To == w.isolated) {
		return // the link crosses the partition cut: delivery-time drop
	}
	inst, ok := w.instances[s.To]
	if !ok {
		panic(fmt.Sprintf("algotest: message %s to unknown instance %d", s.Msg.Kind(), s.To))
	}
	inst.Deliver(s.From, s.Msg)
}

// Drain delivers messages FIFO until nothing is in flight, with a step cap
// to catch livelocks.
func (w *World) Drain(cap int) error {
	for i := 0; ; i++ {
		if i > cap {
			return fmt.Errorf("algotest: still draining after %d deliveries", cap)
		}
		if !w.DeliverNext() {
			return nil
		}
	}
}

// Kinds summarizes the log as a list of message kind strings.
func (w *World) Kinds() []string {
	out := make([]string, len(w.log))
	for i, s := range w.log {
		out[i] = s.Msg.Kind()
	}
	return out
}
