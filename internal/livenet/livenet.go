// Package livenet runs the same algorithm state machines as the simulator,
// but live: every process is a goroutine draining an unbounded mailbox, and
// messages travel over per-link delivery goroutines that model the grid's
// latencies with real sleeps. It implements mutex.Fabric, so the core
// builders assemble deployments on it unchanged.
//
// livenet is the runtime behind the runnable examples and the UDP tooling;
// experiments use the deterministic simulator instead.
package livenet

import (
	"fmt"
	"sync"
	"time"

	"gridmutex/internal/mutex"
)

// Latency returns the one-way delay between two physical nodes. A nil
// Latency means instant delivery.
type Latency func(fromNode, toNode int) time.Duration

// Options configure the live network.
type Options struct {
	// Latency models the link delays; nil delivers instantly.
	Latency Latency
	// Scale divides every latency (e.g. Scale=100 turns the Grid'5000
	// milliseconds into tens of microseconds so examples finish
	// quickly). Zero or one leaves latencies untouched.
	Scale int
}

// Network is an in-process message fabric: goroutine mailboxes per
// process, one delivery goroutine per active link to preserve per-link
// FIFO under latency.
type Network struct {
	opts Options

	mu      sync.Mutex
	nodes   map[mutex.ID]*proc
	nodeOf  map[mutex.ID]int
	links   map[linkKey]chan transfer
	closed  bool
	wg      sync.WaitGroup
	senders sync.WaitGroup // in-flight send calls, drained before Close
}

type linkKey struct{ from, to mutex.ID }

type transfer struct {
	from mutex.ID
	to   mutex.ID
	m    mutex.Message
	due  time.Time // send time plus the link latency; zero for no latency
}

// proc is one registered process: a handler plus its serial mailbox.
type proc struct {
	h    mutex.Handler
	mbox *mailbox
}

// New creates a live network.
func New(opts Options) *Network {
	return &Network{
		opts:   opts,
		nodes:  make(map[mutex.ID]*proc),
		nodeOf: make(map[mutex.ID]int),
		links:  make(map[linkKey]chan transfer),
	}
}

// RegisterAt implements mutex.Fabric: it installs the handler and starts
// the process's mailbox goroutine.
func (n *Network) RegisterAt(id mutex.ID, node int, h mutex.Handler) {
	if h == nil {
		panic("livenet: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		panic("livenet: register on closed network")
	}
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("livenet: process %d registered twice", id))
	}
	p := &proc{h: h, mbox: newMailbox()}
	n.nodes[id] = p
	n.nodeOf[id] = node
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		p.mbox.drain()
	}()
}

// Endpoint implements mutex.Fabric.
func (n *Network) Endpoint(id mutex.ID) mutex.Env {
	return &endpoint{net: n, self: id}
}

// Post schedules f on the serial context of process id; it is how external
// goroutines (e.g. a blocking Lock call) interact with an instance.
func (n *Network) Post(id mutex.ID, f func()) {
	n.mu.Lock()
	p, ok := n.nodes[id]
	n.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("livenet: post to unregistered process %d", id))
	}
	p.mbox.put(f)
}

// Close stops every mailbox and link after their queues drain, and waits
// for the goroutines to exit. Messages sent after Close are dropped.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	links := make([]chan transfer, 0, len(n.links))
	for _, ch := range n.links {
		links = append(links, ch)
	}
	procs := make([]*proc, 0, len(n.nodes))
	for _, p := range n.nodes {
		procs = append(procs, p)
	}
	n.mu.Unlock()
	// Senders that passed the closed check may still be writing into
	// link channels; let them finish before closing.
	n.senders.Wait()
	for _, ch := range links {
		close(ch)
	}
	for _, p := range procs {
		p.mbox.close()
	}
	n.wg.Wait()
}

// send queues the message on the ordered link's delivery goroutine.
func (n *Network) send(from, to mutex.ID, m mutex.Message) {
	if m == nil {
		panic("livenet: nil message")
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	if _, ok := n.nodes[to]; !ok {
		n.mu.Unlock()
		panic(fmt.Sprintf("livenet: message %s from %d to unregistered process %d", m.Kind(), from, to))
	}
	var due time.Time
	if n.opts.Latency != nil {
		delay := n.opts.Latency(n.nodeOf[from], n.nodeOf[to])
		if n.opts.Scale > 1 {
			delay /= time.Duration(n.opts.Scale)
		}
		due = time.Now().Add(delay)
	}
	key := linkKey{from, to}
	ch, ok := n.links[key]
	if !ok {
		ch = make(chan transfer, 256)
		n.links[key] = ch
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.runLink(ch)
		}()
	}
	n.senders.Add(1)
	n.mu.Unlock()
	defer n.senders.Done()
	ch <- transfer{from: from, to: to, m: m, due: due}
}

// runLink delivers one link's messages in order, each no earlier than its
// due time: messages queued together are in flight together, and a link is
// serial, so it stays FIFO.
func (n *Network) runLink(ch chan transfer) {
	for t := range ch {
		if wait := time.Until(t.due); wait > 0 {
			time.Sleep(wait)
		}
		n.mu.Lock()
		p, ok := n.nodes[t.to]
		closed := n.closed
		n.mu.Unlock()
		if !ok || closed {
			continue
		}
		tt := t
		p.mbox.put(func() { p.h.Deliver(tt.from, tt.m) })
	}
}

type endpoint struct {
	net  *Network
	self mutex.ID
}

func (e *endpoint) Send(to mutex.ID, m mutex.Message) { e.net.send(e.self, to, m) }
func (e *endpoint) Local(f func())                    { e.net.Post(e.self, f) }

// mailbox is an unbounded FIFO of closures drained by one goroutine.
// Unboundedness matters: a handler may post to its own mailbox, which
// would deadlock on a full bounded channel.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(f func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.queue = append(m.queue, f)
	m.cond.Signal()
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Signal()
}

// drain runs queued closures until the mailbox is closed and empty.
func (m *mailbox) drain() {
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queue) == 0 && m.closed {
			m.mu.Unlock()
			return
		}
		f := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		f()
	}
}
