// Package core implements the paper's contribution: the hierarchical
// composition of token-based mutual exclusion algorithms (section 3).
//
// A grid deployment runs one intra-cluster algorithm instance per cluster
// and a single inter-cluster instance among per-cluster coordinators. The
// Coordinator type implements the bridge automaton of figures 1 and 2; the
// Process type multiplexes the several algorithm instances a process hosts
// over one network endpoint; Build* functions assemble whole deployments.
package core

import (
	"fmt"
	"sync/atomic"

	"gridmutex/internal/mutex"
)

// Level identifies which hierarchy layer a message belongs to: 0 is the
// intra-cluster layer, 1 the inter-cluster layer, higher values deeper
// hierarchies.
type Level uint8

// Envelope wraps an algorithm message with its hierarchy level so that one
// process endpoint can host instances of several layers.
type Envelope struct {
	Level Level
	Inner mutex.Message
}

// Kind implements mutex.Message; envelopes are transparent for tracing.
func (e Envelope) Kind() string { return e.Inner.Kind() }

// pooledEnvelope is an Envelope in a recycled heap box. Sending an
// Envelope by value boxes it into the mutex.Message interface — one heap
// allocation per message, once the simulator's largest allocation site.
// Boxes cycle through a LIFO freelist instead: Send pops one, Deliver
// empties it and pushes it back. The processes of a Deployment share one
// list, so a send reuses the box the latest delivery freed, still in
// cache; NewProcess gives a process its own.
//
// Recycling is only sound when the transport delivers each sent message
// at most once and retains no reference afterwards, so it is gated on
// the raw endpoint advertising that contract (see deliversOnce). Fabrics
// that duplicate or log messages (algotest.World) and transports that
// serialize them (livenet's UDP wire) keep receiving plain Envelopes.
type pooledEnvelope struct {
	Envelope
}

// deliversOnce is the capability a raw endpoint implements to opt in to
// envelope recycling: every message passed to Send is delivered at most
// once and no reference to it survives the delivery (an undelivered box
// is simply collected). Implementers run a single-goroutine event loop
// (the DES), which lets the freelist skip all synchronization.
type deliversOnce interface {
	DeliversOnce()
}

// Process hosts the algorithm instances of one grid process and routes
// incoming envelopes to the right one (the mutex.Handler contract). It
// takes part in at most two hierarchy levels (its unit's and, for a
// coordinator, the one above), so it has two inline slots; a third level
// panics. It is one 64-byte cache line, and a slot's Env is the Process
// itself seen as env0 or env1.
//
// Attach and Deliver may run on different goroutines on live transports
// (a socket reader is live while the builder attaches), so a slot changes
// only by compare-and-swap on state: a claim writes its level and claimed
// bit; Attach takes the attaching bit, writes the instance, then sets the
// attached bit, which Deliver reads with one atomic load. Instances are
// only ever entered from the serial context.
type Process struct {
	id    mutex.ID
	state atomic.Uint32 // slot levels and flags, see claimed
	raw   mutex.Env
	boxes *[]*pooledEnvelope // envelope freelist; nil unless raw advertises deliversOnce
	insts [2]mutex.Instance
}

// The state word keeps slot i's level in byte i and its flags above it:
// slot 0's are these three, slot 1's each the bit above.
const claimed, attaching, attached = 1 << 16, 1 << 18, 1 << 20

func slotLevel(s uint32, i int) Level { return Level(s >> (8 * i)) }

// NewProcess creates a process with the given raw network endpoint and an
// envelope freelist of its own. Builders register theirs through
// Deployment.Register instead; NewProcess serves callers that drive a
// process outside any Deployment, such as layer benchmarks and tests.
func NewProcess(id mutex.ID, raw mutex.Env) *Process {
	p := new(Process)
	p.init(id, raw, new([]*pooledEnvelope))
	return p
}

// init readies a zero Process in place; Deployment carves processes out of
// a contiguous arena instead of heap-allocating each one.
func (p *Process) init(id mutex.ID, raw mutex.Env, boxes *[]*pooledEnvelope) {
	p.id, p.raw = id, raw
	if _, once := raw.(deliversOnce); once {
		p.boxes = boxes
	}
}

// ID returns the process identifier.
func (p *Process) ID() mutex.ID { return p.id }

// slotFor returns level's slot, claiming the next free one for good on
// first use, and turns its flag on in the same swap; a flag on panics.
func (p *Process) slotFor(level Level, flag uint32) int {
	for {
		s, i := p.state.Load(), 0
		for i < len(p.insts) && s&(claimed<<i) != 0 && slotLevel(s, i) != level {
			i++
		}
		if i == len(p.insts) {
			panic(fmt.Sprintf("core: process %d hosts levels %d and %d and cannot host level %d too", p.id, slotLevel(s, 0), slotLevel(s, 1), level))
		}
		if s&(flag<<i) != 0 {
			panic(fmt.Sprintf("core: process %d already has an instance at level %d", p.id, level))
		}
		if p.state.CompareAndSwap(s, s|(claimed|flag)<<i|uint32(level)<<(8*i)) {
			return i
		}
	}
}

// Attach registers the instance serving the given level.
func (p *Process) Attach(level Level, inst mutex.Instance) {
	i := p.slotFor(level, attaching)
	p.insts[i] = inst
	p.state.Add(attached << i) // only the Attach holding the attaching flag sets it
}

// Instance returns the instance at the level, or nil.
func (p *Process) Instance(level Level) mutex.Instance {
	s := p.state.Load()
	for i := range p.insts {
		if s&(attached<<i) != 0 && slotLevel(s, i) == level {
			return p.insts[i]
		}
	}
	return nil
}

// Env returns the mutex.Env an instance at the given level must be
// constructed with: sends are wrapped in envelopes carrying the level.
// It claims the level's slot.
func (p *Process) Env(level Level) mutex.Env {
	if p.slotFor(level, 0) == 0 {
		return (*env0)(p)
	}
	return (*env1)(p)
}

// Local runs f on the process's serial context without claiming a slot.
func (p *Process) Local(f func()) { p.raw.Local(f) }

// Deliver routes an incoming envelope to the instance at its level. A
// pooled box is copied out and returned to the pool before the instance
// runs, so nothing downstream can observe its reuse.
func (p *Process) Deliver(from mutex.ID, m mutex.Message) {
	var env Envelope
	switch v := m.(type) {
	case Envelope:
		env = v
	case *pooledEnvelope:
		env = v.Envelope
		v.Inner = nil
		*p.boxes = append(*p.boxes, v)
	default:
		panic(fmt.Sprintf("core: process %d received bare message %T", p.id, m))
	}
	inst := p.Instance(env.Level)
	if inst == nil {
		panic(fmt.Sprintf("core: process %d has no instance at level %d for %s", p.id, env.Level, env.Inner.Kind()))
	}
	inst.Deliver(from, env.Inner)
}

// env0 and env1 are a Process seen as the Env of its first and second
// slot: a pointer conversion, so an Env costs no memory of its own.
type env0 Process
type env1 Process

func (e *env0) Send(to mutex.ID, m mutex.Message) { (*Process)(e).send(0, to, m) }
func (e *env1) Send(to mutex.ID, m mutex.Message) { (*Process)(e).send(1, to, m) }
func (e *env0) Local(f func())                    { e.raw.Local(f) }
func (e *env1) Local(f func())                    { e.raw.Local(f) }

// send wraps m in an envelope carrying slot i's level.
func (p *Process) send(i int, to mutex.ID, m mutex.Message) {
	level := slotLevel(p.state.Load(), i)
	if boxes := p.boxes; boxes != nil {
		var pe *pooledEnvelope
		if n := len(*boxes); n > 0 {
			pe = (*boxes)[n-1]
			*boxes = (*boxes)[:n-1]
		} else {
			//lint:allow allochygiene freelist growth: allocates only until the box population reaches the in-flight high-water mark, then steady state pops recycled boxes
			pe = new(pooledEnvelope)
		}
		pe.Level, pe.Inner = level, m
		p.raw.Send(to, pe)
		return
	}
	//lint:allow allochygiene boxing fallback for transports without deliversOnce (duplicating fabrics, serializing wires); the pooled branch above keeps the DES hot path allocation-free
	p.raw.Send(to, Envelope{Level: level, Inner: m})
}
