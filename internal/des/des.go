// Package des implements a deterministic discrete-event simulator.
//
// The simulator owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in scheduling order (FIFO), which makes
// every simulation a pure function of its inputs: same events in, same
// trajectory out. All times are virtual and expressed as time.Duration
// offsets from the start of the simulation; no wall-clock time is consulted.
package des

import (
	"fmt"
	"time"

	"gridmutex/internal/mutex"
)

// Time is an instant in virtual time, measured from the start of the
// simulation.
type Time = time.Duration

// payload is the work carried by a scheduled event. It is one of two
// variants, discriminated by fn:
//
//   - a closure event (fn non-nil), scheduled with At/After;
//   - a typed delivery event (fn nil), scheduled with AtDeliver: the
//     handler, sender and message are stored by value in the slot array,
//     so a network layer delivering millions of messages never boxes a
//     per-message closure onto the garbage-collected heap.
type payload struct {
	fn func()
	// Typed delivery fields (fn == nil). h and msg are interface values:
	// copying them moves two words each, no allocation.
	h    mutex.Handler
	msg  mutex.Message
	from mutex.ID
}

// run executes the payload's variant.
func (p *payload) run() {
	if p.fn != nil {
		p.fn()
		return
	}
	p.h.Deliver(p.from, p.msg)
}

// eventKey is a heap element: the ordering fields plus the index of the
// event's payload slot. It is pointer-free on purpose — sifting a key up
// or down copies 24 bytes and emits no GC write barriers, where sifting
// a full event (five pointer words of closure/handler/message) made the
// runtime's bulk barrier the hottest frame in the scheduler profile.
type eventKey struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant
	slot int32
}

// before orders two keys by (at, seq). seq is unique per simulator, so
// the order is total and the slot index never participates.
func (k eventKey) before(o eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// eventQueue is a 4-ary min-heap in structure-of-arrays form: keys sift
// through the heap, payloads stay put in their slot until popped, and
// freed slots recycle through a stack. The heap is hand-rolled rather
// than built on container/heap because that interface moves every
// element through `any`, boxing each event onto the garbage-collected
// heap; here scheduling is allocation-free once the backing arrays have
// grown to the simulation's high-water mark. The fan-out of four halves
// the tree depth of the pop-heavy workload, and the four child keys it
// scans per level sit in adjacent cache lines.
type eventQueue struct {
	keys  []eventKey
	slots []payload
	free  []int32 // stack of reusable indices into slots
}

// push adds an event and restores the heap invariant. The sift-up moves
// a hole toward the root and writes the key exactly once; the payload is
// written once into its slot and never moves.
func (q *eventQueue) push(at Time, seq uint64, p payload) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.slots))
		q.slots = append(q.slots, payload{})
	}
	q.slots[slot] = p
	k := eventKey{at: at, seq: seq, slot: slot}
	keys := append(q.keys, eventKey{})
	i := len(keys) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
	q.keys = keys
}

// pop removes and returns the minimum event's instant and payload. Like
// push, the sift-down moves a hole instead of swapping pairs.
func (q *eventQueue) pop() (Time, payload) {
	keys := q.keys
	top := keys[0]
	n := len(keys) - 1
	last := keys[n]
	keys = keys[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := min4(first+4, n)
		for c := first + 1; c < end; c++ {
			if keys[c].before(keys[min]) {
				min = c
			}
		}
		if !last.before(keys[min]) {
			keys[i] = keys[min]
			i = min
			continue
		}
		break
	}
	if n > 0 {
		keys[i] = last
	}
	q.keys = keys
	p := q.slots[top.slot]
	// The slot is NOT zeroed here: the next push into it overwrites every
	// field, and skipping the clear saves a bulk write barrier per event.
	// The popped closure/message stays reachable until then — acceptable,
	// because a queue lives only as long as its (short) simulation.
	q.free = append(q.free, top.slot)
	return top.at, p
}

func min4(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Simulator is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all node state machines hosted on one Simulator run
// serially, which is what makes their interleaving reproducible.
type Simulator struct {
	now       Time
	queue     eventQueue
	seq       uint64
	processed uint64
	running   bool
}

// New returns a simulator with an empty event queue at virtual time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending returns the number of events waiting in the queue.
func (s *Simulator) Pending() int { return len(s.queue.keys) }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it would silently corrupt causality, which is never recoverable.
func (s *Simulator) At(t Time, fn func()) {
	if fn == nil {
		panic("des: At called with nil function")
	}
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling into the past (now=%v, at=%v)", s.now, t))
	}
	s.seq++
	s.queue.push(t, s.seq, payload{fn: fn})
}

// After schedules fn to run d after the current virtual time. A negative d
// panics.
func (s *Simulator) After(d time.Duration, fn func()) {
	s.At(s.now+d, fn)
}

// AtDeliver schedules a typed message delivery at virtual time t: when the
// event fires, h.Deliver(from, m) runs. Unlike At with a closure, the
// handler, sender and message are stored by value inside the event queue,
// so the steady-state send path of a network layer allocates nothing.
// Scheduling in the past or with a nil handler panics.
func (s *Simulator) AtDeliver(t Time, h mutex.Handler, from mutex.ID, m mutex.Message) {
	if h == nil {
		panic("des: AtDeliver called with nil handler")
	}
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling into the past (now=%v, at=%v)", s.now, t))
	}
	s.seq++
	s.queue.push(t, s.seq, payload{h: h, from: from, msg: m})
}

// Step executes the earliest pending event, advancing the clock to its
// instant. It reports whether an event was executed.
func (s *Simulator) Step() bool {
	if len(s.queue.keys) == 0 {
		return false
	}
	at, p := s.queue.pop()
	s.now = at
	s.processed++
	p.run()
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	s.guardRun()
	defer func() { s.running = false }()
	for s.Step() {
	}
}

// RunUntil executes events with instants <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (s *Simulator) RunUntil(deadline Time) {
	s.guardRun()
	defer func() { s.running = false }()
	for len(s.queue.keys) > 0 && s.queue.keys[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Simulator) RunFor(d time.Duration) {
	s.RunUntil(s.now + d)
}

// MaxEventsExceeded is the panic value used by RunCapped when the event
// budget is exhausted; it almost always indicates a livelock (two nodes
// bouncing messages forever).
type MaxEventsExceeded struct {
	Limit uint64
	Now   Time
}

func (m MaxEventsExceeded) Error() string {
	return fmt.Sprintf("des: exceeded %d events at virtual time %v", m.Limit, m.Now)
}

// RunCapped executes events until the queue is empty or limit events have
// been executed during this call, in which case it returns a
// MaxEventsExceeded error. Useful as a livelock guard in tests.
func (s *Simulator) RunCapped(limit uint64) error {
	s.guardRun()
	defer func() { s.running = false }()
	start := s.processed
	for len(s.queue.keys) > 0 {
		if s.processed-start >= limit {
			return MaxEventsExceeded{Limit: limit, Now: s.now}
		}
		s.Step()
	}
	return nil
}

func (s *Simulator) guardRun() {
	if s.running {
		panic("des: reentrant Run on the same Simulator")
	}
	s.running = true
}
