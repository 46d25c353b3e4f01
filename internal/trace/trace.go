// Package trace records structured protocol events — message sends,
// deliveries, critical section transitions, coordinator state changes —
// into a bounded ring buffer that can be dumped as text. Tracing is how a
// production operator reconstructs a token's journey after the fact:
// every event carries the virtual (or wall) timestamp of the clock the
// tracer was built with.
//
// A nil *Tracer is valid and records nothing, so call sites never need to
// guard their hooks.
package trace

import (
	"fmt"
	"strings"
	"time"

	"gridmutex/internal/mutex"
)

// Kind classifies an event.
type Kind uint8

const (
	// Send: a message left a process.
	Send Kind = iota
	// Deliver: a message reached its destination process.
	Deliver
	// Acquire: a process entered the critical section.
	Acquire
	// Release: a process left the critical section.
	Release
	// CoordState: a coordinator changed automaton state.
	CoordState
	// Custom: free-form annotation.
	Custom
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Send:
		return "send"
	case Deliver:
		return "deliver"
	case Acquire:
		return "acquire"
	case Release:
		return "release"
	case CoordState:
		return "coord"
	case Custom:
		return "note"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded protocol occurrence.
type Event struct {
	At   time.Duration
	Kind Kind
	// From and To identify the processes involved (To is None for
	// single-process events).
	From, To mutex.ID
	// Detail is the message kind, state name, or annotation.
	Detail string
}

// String renders the event as one log line.
func (e Event) String() string {
	switch e.Kind {
	case Send, Deliver:
		return fmt.Sprintf("%12v %-8s %4d -> %-4d %s", e.At, e.Kind, e.From, e.To, e.Detail)
	default:
		return fmt.Sprintf("%12v %-8s %4d         %s", e.At, e.Kind, e.From, e.Detail)
	}
}

// Tracer is a bounded ring buffer of events. It is not safe for
// concurrent use; on live transports wrap it or trace per process.
type Tracer struct {
	clock   func() time.Duration
	cap     int
	events  []Event
	start   int
	dropped int64
}

// New creates a tracer reading timestamps from clock and retaining the
// last capacity events.
func New(clock func() time.Duration, capacity int) *Tracer {
	if clock == nil {
		panic("trace: nil clock")
	}
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	return &Tracer{clock: clock, cap: capacity}
}

// Record appends an event; nil tracers ignore it.
func (t *Tracer) Record(kind Kind, from, to mutex.ID, detail string) {
	if t == nil {
		return
	}
	e := Event{At: t.clock(), Kind: kind, From: from, To: to, Detail: detail}
	if len(t.events) < t.cap {
		t.events = append(t.events, e)
		return
	}
	t.events[t.start] = e
	t.start = (t.start + 1) % t.cap
	t.dropped++
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.start:]...)
	out = append(out, t.events[:t.start]...)
	return out
}

// Dump renders the retained events as text, one line each.
func (t *Tracer) Dump() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	if t.dropped > 0 {
		fmt.Fprintf(&b, "(%d earlier events dropped)\n", t.dropped)
	}
	for _, e := range t.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
