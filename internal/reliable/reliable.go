// Package reliable adds per-link sequencing, acknowledgement and
// retransmission on top of any mutex.Fabric, turning a lossy transport
// into the reliable FIFO channel the mutual exclusion algorithms assume.
//
// The paper's implementation runs on raw UDP and implicitly relies on the
// testbed's LAN/WAN links not dropping datagrams; this package makes that
// assumption explicit and dischargeable: wrap the fabric, and every
// message is delivered exactly once, in per-link order, as long as the
// link loses less than every retransmission of a packet.
//
// Protocol: each ordered (sender, receiver) pair carries an independent
// sequence space. Data packets carry a sequence number; the receiver
// delivers in order, buffers out-of-order arrivals, drops duplicates and
// acknowledges cumulatively. Senders retransmit unacknowledged packets on
// a timer with exponential backoff, giving up (and counting it) after
// MaxRetries — at which point the link is considered failed, which the
// algorithms in this repository do not survive by design.
package reliable

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gridmutex/internal/mutex"
)

// Timer schedules a callback after a delay; des.Simulator satisfies it.
type Timer interface {
	After(d time.Duration, f func())
}

// Options tune the retransmission machinery.
type Options struct {
	// RTO is the initial retransmission timeout; it should exceed the
	// largest round trip of the underlying fabric (default 250ms).
	RTO time.Duration
	// MaxRetries bounds retransmissions per packet (default 10).
	MaxRetries int
}

// backoff multiplies the timeout on every retransmission.
const backoff = 2

func (o *Options) fill() {
	if o.RTO <= 0 {
		o.RTO = 250 * time.Millisecond
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 10
	}
}

// Stats counts protocol activity.
type Stats struct {
	// DataSent counts first transmissions; Retransmits counts resends.
	DataSent, Retransmits int64
	// AcksSent counts acknowledgements.
	AcksSent int64
	// Duplicates counts received data packets that were already
	// delivered; OutOfOrder counts arrivals buffered for reordering.
	Duplicates, OutOfOrder int64
	// GivenUp counts packets abandoned after MaxRetries — a link
	// failure the algorithms cannot mask.
	GivenUp int64
}

// Packet is a sequenced data frame.
type Packet struct {
	Seq uint64
	M   mutex.Message
}

// Kind implements mutex.Message; packets are transparent for tracing.
func (p Packet) Kind() string { return p.M.Kind() }

// Size implements mutex.Message: payload plus the sequence header.
func (p Packet) Size() int { return p.M.Size() + 8 }

// Ack acknowledges every sequence number up to and including Cum.
type Ack struct {
	Cum uint64
}

// Kind implements mutex.Message.
func (Ack) Kind() string { return "reliable.ack" }

// Size implements mutex.Message.
func (Ack) Size() int { return 24 }

type link struct{ from, to mutex.ID }

// sendState tracks one directed link's unacknowledged packets.
type sendState struct {
	nextSeq     uint64
	outstanding map[uint64]mutex.Message
}

// recvState tracks one directed link's delivery frontier.
type recvState struct {
	expected uint64 // next sequence number to deliver
	buffered map[uint64]mutex.Message
}

// Network decorates an unreliable fabric with reliable FIFO links. It
// implements mutex.Fabric.
type Network struct {
	inner mutex.Fabric
	timer Timer
	opts  Options

	mu       sync.Mutex
	sends    map[link]*sendState
	recvs    map[link]*recvState
	handlers map[mutex.ID]mutex.Handler
	envs     map[mutex.ID]mutex.Env // inner endpoints, for acks
	stats    Stats
}

// Wrap builds the reliable layer over inner, scheduling retransmissions
// with timer.
func Wrap(inner mutex.Fabric, timer Timer, opts Options) *Network {
	if inner == nil || timer == nil {
		panic("reliable: nil fabric or timer")
	}
	opts.fill()
	return &Network{
		inner: inner, timer: timer, opts: opts,
		sends:    make(map[link]*sendState),
		recvs:    make(map[link]*recvState),
		handlers: make(map[mutex.ID]mutex.Handler),
		envs:     make(map[mutex.ID]mutex.Env),
	}
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// RegisterAt implements mutex.Fabric: the handler is wrapped with the
// receive-side protocol.
func (n *Network) RegisterAt(id mutex.ID, node int, h mutex.Handler) {
	if h == nil {
		panic("reliable: nil handler")
	}
	n.mu.Lock()
	if _, dup := n.handlers[id]; dup {
		n.mu.Unlock()
		panic(fmt.Sprintf("reliable: process %d registered twice", id))
	}
	n.handlers[id] = h
	n.envs[id] = n.inner.Endpoint(id)
	n.mu.Unlock()
	n.inner.RegisterAt(id, node, &receiver{net: n, self: id})
}

// Endpoint implements mutex.Fabric.
func (n *Network) Endpoint(id mutex.ID) mutex.Env {
	return &endpoint{net: n, self: id}
}

type endpoint struct {
	net  *Network
	self mutex.ID
}

func (e *endpoint) Send(to mutex.ID, m mutex.Message) { e.net.send(e.self, to, m) }

func (e *endpoint) Local(f func()) {
	e.net.mu.Lock()
	env := e.net.envs[e.self]
	e.net.mu.Unlock()
	if env == nil {
		panic(fmt.Sprintf("reliable: Local on unregistered process %d", e.self))
	}
	env.Local(f)
}

func (n *Network) send(from, to mutex.ID, m mutex.Message) {
	n.mu.Lock()
	l := link{from, to}
	st := n.sends[l]
	if st == nil {
		st = &sendState{outstanding: make(map[uint64]mutex.Message)}
		n.sends[l] = st
	}
	st.nextSeq++
	seq := st.nextSeq
	st.outstanding[seq] = m
	env := n.envs[from]
	n.stats.DataSent++
	n.mu.Unlock()
	if env == nil {
		panic(fmt.Sprintf("reliable: send from unregistered process %d", from))
	}
	env.Send(to, Packet{Seq: seq, M: m})
	n.scheduleRetransmit(l, seq, n.opts.RTO, 0)
}

// scheduleRetransmit re-sends seq on l until it is acknowledged or the
// retry budget runs out.
func (n *Network) scheduleRetransmit(l link, seq uint64, timeout time.Duration, attempt int) {
	n.timer.After(timeout, func() {
		n.mu.Lock()
		st := n.sends[l]
		m, waiting := st.outstanding[seq]
		if !waiting {
			n.mu.Unlock()
			return // acknowledged in the meantime
		}
		if attempt >= n.opts.MaxRetries {
			delete(st.outstanding, seq)
			n.stats.GivenUp++
			n.mu.Unlock()
			return
		}
		n.stats.Retransmits++
		env := n.envs[l.from]
		n.mu.Unlock()
		env.Send(l.to, Packet{Seq: seq, M: m})
		n.scheduleRetransmit(l, seq, backoff*timeout, attempt+1)
	})
}

// receiver is the inner-fabric handler installed per process.
type receiver struct {
	net  *Network
	self mutex.ID
}

func (r *receiver) Deliver(from mutex.ID, m mutex.Message) {
	switch msg := m.(type) {
	case Ack:
		r.net.onAck(link{r.self, from}, msg.Cum)
	case Packet:
		r.net.onPacket(from, r.self, msg)
	default:
		panic(fmt.Sprintf("reliable: raw message %T on wrapped fabric", m))
	}
}

// onAck clears acknowledged packets of the sender-side link state. The
// link is keyed (self, from): acks travel opposite to their data.
func (n *Network) onAck(l link, cum uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.sends[l]
	if st == nil {
		return
	}
	for seq := range st.outstanding {
		if seq <= cum {
			delete(st.outstanding, seq)
		}
	}
}

// onPacket runs the receive side: deliver in order, buffer ahead, drop
// duplicates, acknowledge cumulatively.
func (n *Network) onPacket(from, self mutex.ID, p Packet) {
	l := link{from, self}
	n.mu.Lock()
	st := n.recvs[l]
	if st == nil {
		st = &recvState{buffered: make(map[uint64]mutex.Message)}
		n.recvs[l] = st
	}
	var deliver []mutex.Message
	switch {
	case p.Seq == st.expected+1:
		deliver = append(deliver, p.M)
		st.expected++
		for {
			m, ok := st.buffered[st.expected+1]
			if !ok {
				break
			}
			delete(st.buffered, st.expected+1)
			st.expected++
			deliver = append(deliver, m)
		}
	case p.Seq <= st.expected:
		n.stats.Duplicates++
	default:
		if _, dup := st.buffered[p.Seq]; dup {
			n.stats.Duplicates++
		} else {
			st.buffered[p.Seq] = p.M
			n.stats.OutOfOrder++
		}
	}
	cum := st.expected
	h := n.handlers[self]
	env := n.envs[self]
	n.stats.AcksSent++
	n.mu.Unlock()

	// Ack outside the lock; every data packet earns a cumulative ack so
	// lost acks are repaired by the next arrival.
	env.Send(from, Ack{Cum: cum})
	for _, m := range deliver {
		h.Deliver(from, m)
	}
}

// Quiesced reports whether no packet is awaiting acknowledgement — useful
// for draining tests.
func (n *Network) Quiesced() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, st := range n.sends {
		if len(st.outstanding) > 0 {
			return false
		}
	}
	return true
}

// PendingSeqs lists unacknowledged sequence numbers of one link, sorted —
// a debugging aid.
func (n *Network) PendingSeqs(from, to mutex.ID) []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.sends[link{from, to}]
	if st == nil {
		return nil
	}
	out := make([]uint64, 0, len(st.outstanding))
	for seq := range st.outstanding {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
