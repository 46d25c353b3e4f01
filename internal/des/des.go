// Package des implements a deterministic discrete-event simulator.
//
// The simulator owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in scheduling order (FIFO), which makes
// every simulation a pure function of its inputs: same events in, same
// trajectory out. All times are virtual and expressed as time.Duration
// offsets from the start of the simulation; no wall-clock time is consulted.
// The clock saturates: a delay that would carry an event past the largest
// Time (292 years) schedules it at that instant, behind the events already
// there, where adding the delay would wrap into the past.
package des

import (
	"fmt"
	"math"
	"math/bits"
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
//   - a typed event (fn nil), scheduled with AtDeliver: the handler, sender
//     and message are stored by value in the slot array, so a network layer
//     delivering millions of messages never boxes a per-message closure onto
//     the garbage-collected heap. Typed events carry the workload's request
//     and exit timers as well as deliveries: the "message" is a one-byte
//     timer kind and the handler the runner, so a timer needs no closure
//     per process either.
//
// A payload is written field by field into its slot and read there: it is
// never passed or returned by value, which the register ABI would spill
// in 8-byte words and reload in 16-byte ones, a store-forwarding stall at
// every push, pop and step.
type payload struct {
	fn func()
	// Typed delivery fields (fn == nil).
	h    mutex.Handler
	msg  mutex.Message
	from mutex.ID
	// next links a freed slot to the one freed before it, plus one (0 ends
	// the list). It fills the pad after from, so a payload stays 48 bytes.
	next int32
}

// eventKey is a queue element: the event's instant and the index of its
// payload slot. It is pointer-free on purpose — moving a key copies 16
// bytes and emits no GC write barriers, where moving a full event (five
// pointer words of closure/handler/message) made the runtime's bulk
// barrier the hottest frame in the scheduler profile.
type eventKey struct {
	at   Time
	slot int32
}

// QueueStats is the event queue's work over a run, exactly: keys pushed,
// keys moved by scatters, buckets scattered, the most events pending at
// once, and how many of the pushes were closure events (At/After; the rest
// were typed events from AtDeliver). Every field is a pure function of the
// schedule, so it repeats per seed on any machine.
type QueueStats struct {
	Pushes, Moves, Scatters uint64
	HighWater               int
	Closures                uint64
}

// MovesPerEvent is the scatter work per scheduled event: one key appended
// to a lower bucket counts one (a push and a pop move nothing).
func (q QueueStats) MovesPerEvent() float64 {
	return float64(q.Moves) / float64(max(q.Pushes, 1))
}

// eventQueue is a radix heap in structure-of-arrays form — a monotone
// priority queue, which is all a simulator needs: nothing is pushed before
// the instant of the latest pop, last. A key sits in bucket
// bits.Len64(at ^ last): bucket 0 holds the keys at last itself, bucket b
// those whose instant first differs from last at bit b-1, so where a key
// sits is a function of its instant and the clock, with no boundary to
// tune and no comparison on push. Payloads stay put in their slot until
// popped, and freed slots recycle through a LIFO list threaded through the
// slots themselves, so scheduling allocates nothing once the arrays have
// grown. Pop order is (instant, scheduling order) by three invariants:
//
//  1. Placement: a key in bucket j agrees with last on every bit >= j, and
//     a new last from a lower bucket b agrees with the old one on every
//     bit >= b, so keys above b stay put, the earliest key is always in
//     the lowest non-empty bucket, and b's keys land strictly below b.
//  2. FIFO without a tie-break field: every bucket is in push order at all
//     times — a push appends, and a scatter appends in stored order into
//     buckets empty at that moment — and same-instant keys share a bucket.
//  3. last <= now: only a pop moves last, and the clock with it, so a peek
//     (RunUntil short of the next event) must not scatter.
type eventQueue struct {
	buckets [64][]eventKey // instants are >= 0: the XOR never sets bit 63
	mask    uint64         // bit b set = bucket b non-empty
	head    int            // bucket 0 is served front to back from here
	last    Time
	pending int
	slots   []payload
	free    int32 // the last freed slot plus one, 0 if none: the free list's head
	stats   QueueStats
}

// push reserves a slot for an event at instant at, appends its key to the
// bucket that instant selects, and returns the slot for the caller to
// write every field of: the payload is written once, in place, and never
// moved.
func (q *eventQueue) push(at Time) *payload {
	slot := q.free - 1
	if slot >= 0 {
		q.free = q.slots[slot].next
	} else {
		slot = q.grow()
	}
	if b := bits.Len64(uint64(at) ^ uint64(q.last)); len(q.buckets[b]) == cap(q.buckets[b]) && len(q.buckets[b]) >= 256 {
		q.growBucket(b)
	}
	q.place(eventKey{at: at, slot: slot})
	q.pending++
	q.stats.Pushes++
	q.stats.HighWater = max(q.stats.HighWater, q.pending)
	return &q.slots[slot]
}

// grow extends the slot array by one slot and returns its index. From 256
// slots on, a full array doubles to the next power of two: append grows a
// large slice by 1.25×, and under the commands' GOGC 400 the chain of
// arrays it leaves behind, about four times the live one at 10⁵ pending
// events, is never collected before the run ends. The dead arrays doubling
// leaves sum to less than the live one. Below 256, append doubles
// already, and rounds up to the allocator's size classes: a queue of 78
// events fits in 85 slots, not 128.
func (q *eventQueue) grow() int32 {
	n := len(q.slots)
	if n == cap(q.slots) && n >= 256 {
		slots := make([]payload, n, 1<<bits.Len(uint(n)))
		copy(slots, q.slots)
		q.slots = slots
	}
	q.slots = append(q.slots, payload{})
	return int32(n)
}

// growBucket doubles full bucket b, which holds 256 keys or more, before a
// push appends to it: its keys are copied in order (invariant 2) into the
// smallest drained bucket's array that holds twice as many, and that
// bucket takes the outgrown array in exchange; only when no drained array
// is large enough is a new one allocated. append's 1.25× would leave a
// chain of dead arrays that GOGC 400 never collects before a run ends.
// Below 256 keys append doubles already. This is push's cold branch and
// not place's: place is inlined into push and pop's scatter loop, and
// doubling there costs it its inlining.
func (q *eventQueue) growBucket(b int) {
	keys := q.buckets[b]
	take := -1
	for d := range q.buckets {
		if c := cap(q.buckets[d]); q.mask>>d&1 == 0 && c >= 2*len(keys) && (take < 0 || c < cap(q.buckets[take])) {
			take = d
		}
	}
	var grown []eventKey
	if take >= 0 {
		grown = q.buckets[take][:len(keys)]
		q.buckets[take] = keys[:0]
	} else {
		grown = make([]eventKey, len(keys), 2*cap(keys))
	}
	copy(grown, keys)
	q.buckets[b] = grown
}

// place appends k to its bucket under the current last.
func (q *eventQueue) place(k eventKey) {
	b := bits.Len64(uint64(k.at) ^ uint64(q.last))
	q.buckets[b] = append(q.buckets[b], k)
	q.mask |= 1 << b
}

// pop removes the earliest pending event and returns its instant and
// payload slot, provided that instant is <= deadline; otherwise it reports
// false and leaves the queue, last included, as it was. The slot heads the
// free list before the event runs, so the next push reuses it.
func (q *eventQueue) pop(deadline Time) (Time, int32, bool) {
	var k eventKey
	if q.mask&1 == 0 {
		if q.mask == 0 {
			return 0, 0, false
		}
		// The lowest non-empty bucket's minimum becomes last, and the
		// bucket's keys redistribute below it.
		b := bits.TrailingZeros64(q.mask)
		keys := q.buckets[b]
		k = keys[0]
		for _, o := range keys[1:] {
			if o.at < k.at {
				k = o
			}
		}
		if k.at > deadline {
			return 0, 0, false
		}
		q.last = k.at
		q.buckets[b] = keys[:0]
		q.mask &^= 1 << b
		if len(keys) > 1 { // a lone key — the sparse case — is popped in place
			for _, o := range keys {
				q.place(o)
			}
			q.stats.Scatters++
			q.stats.Moves += uint64(len(keys))
		}
	} else if q.last > deadline {
		return 0, 0, false
	}
	if q.mask&1 != 0 { // bucket 0 holds the keys at last, in push order
		keys := q.buckets[0]
		k = keys[q.head]
		if q.head++; q.head == len(keys) {
			q.buckets[0], q.head = keys[:0], 0
			q.mask &^= 1
		}
	}
	// The slot is NOT zeroed here: the next push into it overwrites every
	// field, and skipping the clear saves a bulk write barrier per event.
	// A stale slot pins one popped closure/message until the slot is
	// reused, and the slot array's length never exceeds the pending
	// high-water mark, so that is the most a queue of any lifetime retains.
	q.slots[k.slot].next = q.free
	q.free = k.slot + 1
	q.pending--
	return k.at, k.slot, true
}

// Simulator is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all node state machines hosted on one Simulator run
// serially, which is what makes their interleaving reproducible.
type Simulator struct {
	now       Time
	queue     eventQueue
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
func (s *Simulator) Pending() int { return s.queue.pending }

// QueueStats returns the event queue's exact work counts so far.
func (s *Simulator) QueueStats() QueueStats { return s.queue.stats }

// Reserve makes room for n more pending events, so that scheduling them
// grows the slot array at most once: straight to the power of two its
// doubling would end at. A caller about to schedule many events at once,
// like one timer per process, calls it first. Below 256 slots it does
// nothing: append grows a small array.
func (s *Simulator) Reserve(n int) {
	q := &s.queue
	need := q.pending + n
	if need <= cap(q.slots) || need <= 256 {
		return
	}
	slots := make([]payload, len(q.slots), 1<<bits.Len(uint(need-1)))
	copy(slots, q.slots)
	q.slots = slots
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
	// Clearing the delivery fields keeps a reused slot from pinning the
	// message of the delivery that last ran in it.
	p := s.queue.push(t)
	p.fn, p.h, p.msg = fn, nil, nil
	s.queue.stats.Closures++
}

// After schedules fn to run d after the current virtual time (In). A
// negative d panics.
func (s *Simulator) After(d time.Duration, fn func()) {
	s.At(s.In(d), fn)
}

// In returns the instant d after the current virtual time, saturating at
// the largest Time. A negative d gives an instant in the past, which At and
// AtDeliver reject.
func (s *Simulator) In(d time.Duration) Time {
	if t := s.now + d; d <= 0 || t > s.now {
		return t
	}
	return math.MaxInt64
}

// AtDeliver schedules a typed event at virtual time t: when it fires,
// h.Deliver(from, m) runs. Unlike At with a closure, the handler, sender and
// message are stored by value inside the event queue, so the steady-state
// send path of a network layer allocates nothing, and a timer whose handler
// and kind are fixed values needs no closure bound per process. Scheduling
// in the past or with a nil handler panics.
func (s *Simulator) AtDeliver(t Time, h mutex.Handler, from mutex.ID, m mutex.Message) {
	if h == nil {
		panic("des: AtDeliver called with nil handler")
	}
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling into the past (now=%v, at=%v)", s.now, t))
	}
	p := s.queue.push(t)
	p.fn, p.h, p.from, p.msg = nil, h, from, m
}

// Step executes the earliest pending event, advancing the clock to its
// instant. It reports whether an event was executed.
func (s *Simulator) Step() bool { return s.step(math.MaxInt64) }

// step executes the earliest pending event if its instant is <= deadline.
func (s *Simulator) step(deadline Time) bool {
	at, slot, ok := s.queue.pop(deadline)
	if !ok {
		return false
	}
	s.now = at
	s.processed++
	// The slot is already free and the event's first push takes it over
	// (and may grow the slot array), so every field is loaded before the
	// call.
	p := &s.queue.slots[slot]
	if fn := p.fn; fn != nil {
		fn()
		return true
	}
	h, from, msg := p.h, p.from, p.msg
	h.Deliver(from, msg)
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
	for s.step(deadline) {
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor executes events for d of virtual time from the current instant
// (In).
func (s *Simulator) RunFor(d time.Duration) {
	s.RunUntil(s.In(d))
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
	for s.queue.pending > 0 {
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
