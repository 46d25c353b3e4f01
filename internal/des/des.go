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

// farAfter routes a key by how far ahead of now its instant lies: beyond
// it the key goes to the far heap. Every workload is bimodal — protocol
// time (RTTs, critical sections, heartbeats: under 100 ms) against think
// time of seconds to hundreds of seconds — and key moves per event at
// N = 10⁵ are flat for any value from 20 ms to 1 s (DESIGN.md §10), so it
// is data here, not an option.
const farAfter = time.Second

// TierStats counts one key heap's work, exactly: keys pushed, levels keys
// were moved by push and pop sifts together, and the most keys it held.
type TierStats struct {
	Pushes, KeyMoves uint64
	HighWater        int
}

// QueueStats is the event queue's work over a run, per tier. Every field
// is a pure function of the schedule, so it repeats per seed on any
// machine.
type QueueStats struct{ Near, Far TierStats }

// Pushes is the number of events scheduled, over both tiers.
func (q QueueStats) Pushes() uint64 { return q.Near.Pushes + q.Far.Pushes }

// MovesPerEvent is the sift work per scheduled event: one key moved one
// heap level counts one, push and pop together.
func (q QueueStats) MovesPerEvent() float64 {
	return float64(q.Near.KeyMoves+q.Far.KeyMoves) / float64(max(q.Pushes(), 1))
}

// keyHeap is a 4-ary min-heap of event keys under before. It is
// hand-rolled rather than built on container/heap because that interface
// moves every element through `any`, boxing each event onto the
// garbage-collected heap. The fan-out of four halves the tree depth of
// the pop-heavy workload, and the four child keys it scans per level sit
// in adjacent cache lines.
type keyHeap struct {
	keys  []eventKey
	stats TierStats
}

// push adds a key and restores the heap invariant. The sift-up moves a
// hole toward the root and writes the key exactly once.
func (h *keyHeap) push(k eventKey) {
	keys := append(h.keys, eventKey{})
	i := len(keys) - 1
	moves := 0
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
		moves++
	}
	keys[i] = k
	h.keys = keys
	h.stats.Pushes++
	h.stats.KeyMoves += uint64(moves)
	h.stats.HighWater = max(h.stats.HighWater, len(keys))
}

// pop removes and returns the minimum key of a non-empty heap. Like push,
// the sift-down moves a hole instead of swapping pairs.
func (h *keyHeap) pop() eventKey {
	keys := h.keys
	top := keys[0]
	n := len(keys) - 1
	last := keys[n]
	keys = keys[:n]
	i := 0
	moves := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if keys[c].before(keys[least]) {
				least = c
			}
		}
		if !last.before(keys[least]) {
			keys[i] = keys[least]
			i = least
			moves++
			continue
		}
		break
	}
	if n > 0 {
		keys[i] = last
	}
	h.keys = keys
	h.stats.KeyMoves += uint64(moves)
	return top
}

// eventQueue is a priority queue in structure-of-arrays form: keys sift
// through one of two heaps, payloads stay put in their slot until popped,
// and freed slots recycle through a stack, so scheduling is
// allocation-free once the backing arrays have grown to the simulation's
// high-water mark. A key is pushed to far when its instant lies more than
// farAfter ahead of now and to near otherwise, and stays where it was
// pushed; pop takes whichever top is before the other, so events leave in
// the one (at, seq) order whatever the routing — it decides only how deep
// a heap a key sifts through. Near holds the messages in flight (tens of
// keys), far the idle timers (one per thinking process).
type eventQueue struct {
	near, far keyHeap
	slots     []payload
	free      []int32 // stack of reusable indices into slots
}

// push stores the payload, written once into its slot and never moved,
// and adds its key to the far or the near heap.
func (q *eventQueue) push(at Time, seq uint64, far bool, p payload) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.slots))
		q.slots = append(q.slots, payload{})
	}
	q.slots[slot] = p
	h := &q.near
	if far {
		h = &q.far
	}
	h.push(eventKey{at: at, seq: seq, slot: slot})
}

// next returns the heap whose top is the earliest pending event, nil when
// both are empty.
func (q *eventQueue) next() *keyHeap {
	near, far := q.near.keys, q.far.keys
	if len(far) > 0 && (len(near) == 0 || far[0].before(near[0])) {
		return &q.far
	}
	if len(near) == 0 {
		return nil
	}
	return &q.near
}

// pop removes the top of h, one of the queue's two heaps, and returns its
// instant and payload.
func (q *eventQueue) pop(h *keyHeap) (Time, payload) {
	top := h.pop()
	p := q.slots[top.slot]
	// The slot is NOT zeroed here: the next push into it overwrites every
	// field, and skipping the clear saves a bulk write barrier per event.
	// A stale slot pins one popped closure/message until the slot is
	// reused, and the slot array never exceeds the pending high-water
	// mark, so that is the most a queue of any lifetime retains.
	q.free = append(q.free, top.slot)
	return top.at, p
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
func (s *Simulator) Pending() int { return len(s.queue.near.keys) + len(s.queue.far.keys) }

// QueueStats returns the event queue's exact work counts so far.
func (s *Simulator) QueueStats() QueueStats {
	return QueueStats{Near: s.queue.near.stats, Far: s.queue.far.stats}
}

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
	s.queue.push(t, s.seq, t-s.now > farAfter, payload{fn: fn})
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
	s.queue.push(t, s.seq, t-s.now > farAfter, payload{h: h, from: from, msg: m})
}

// Step executes the earliest pending event, advancing the clock to its
// instant. It reports whether an event was executed.
func (s *Simulator) Step() bool {
	h := s.queue.next()
	if h == nil {
		return false
	}
	s.exec(h)
	return true
}

// exec pops and runs the top of h, the heap next returned.
func (s *Simulator) exec(h *keyHeap) {
	at, p := s.queue.pop(h)
	s.now = at
	s.processed++
	p.run()
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
	for h := s.queue.next(); h != nil && h.keys[0].at <= deadline; h = s.queue.next() {
		s.exec(h)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Simulator) RunFor(d time.Duration) {
	s.RunUntil(s.now + d)
}

// MaxEventsExceeded is the error RunCapped returns when the event budget
// is exhausted; it almost always indicates a livelock (two nodes
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
	for h := s.queue.next(); h != nil; h = s.queue.next() {
		if s.processed-start >= limit {
			return MaxEventsExceeded{Limit: limit, Now: s.now}
		}
		s.exec(h)
	}
	return nil
}

func (s *Simulator) guardRun() {
	if s.running {
		panic("des: reentrant Run on the same Simulator")
	}
	s.running = true
}
