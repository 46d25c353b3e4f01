// Package simnet provides the simulated grid network: a mutex.Env
// implementation on top of the discrete-event simulator, with per-link
// latencies taken from a topology.Grid and the message accounting the
// paper's evaluation reports (total / intra-cluster / inter-cluster message
// and byte counts).
//
// Addresses are process identifiers: mutex.ID values equal to the global
// node index in the topology. One handler is registered per process; the
// composition layer multiplexes several algorithm instances behind a single
// process handler.
//
// The send→deliver path is the innermost loop of every experiment, so the
// package keeps it allocation-free and map-free and reads about one cache
// line per process on each side: a process's one record (proc) is its
// mutex.Env and the handler of the typed des events that deliver to it
// (DESIGN.md §10). Latency has one path at every grid size: the paper gives
// it as a cluster-to-cluster RTT matrix, so send reads the receiver's
// cluster from an O(N) index and asks the grid for RTT(ca, cb)/2. The FIFO
// watermark has one store too: each sender's record lists the watermarks of
// its links with a message in flight (proc.fl), so a network's build is O(N)
// at every grid size (DESIGN.md §14).
package simnet

import (
	"fmt"
	"maps"
	"math/rand"
	"time"

	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
	"gridmutex/internal/rng"
	"gridmutex/internal/trace"
)

// Handler receives messages addressed to a process; it is the fabric-wide
// handler contract of the mutex package.
type Handler = mutex.Handler

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from mutex.ID, m mutex.Message)

// Deliver calls f(from, m).
func (f HandlerFunc) Deliver(from mutex.ID, m mutex.Message) { f(from, m) }

// Options tune the network model.
type Options struct {
	// Jitter is the maximum fractional latency increase applied per
	// message: the delay of each message is multiplied by a uniform
	// factor in [1, 1+Jitter]. Zero means fixed latencies.
	Jitter float64
	// Seed seeds the jitter generator; runs with equal seeds are
	// identical.
	Seed int64
	// Trace, when non-nil, records every send and delivery.
	Trace *trace.Tracer
	// Loss drops each message with this probability (deterministic per
	// Seed). The token algorithms assume reliable channels, so a lossy
	// network needs the reliable wrapper on top to stay live.
	Loss float64
	// KindCounts enables the per-Message.Kind counter map
	// (Counters.ByKind). It is opt-in because even counted by runs of one
	// kind it costs a string compare per message; the default hot path
	// skips it.
	KindCounts bool
}

// Network simulates the grid's message fabric over one simulator.
type Network struct {
	sim  *des.Simulator
	grid gridModel
	opts Options
	rng  *rand.Rand // jitter/loss stream; nil on a fixed, lossless network

	// The records, by mutex.ID. A record's address is its process's Env and
	// the handler of its delivery events, so records never move: base holds
	// the topology's nodes exactly, more the coordinators registered past them.
	base []proc
	more []*proc
	clOf []int32 // process -> its node's cluster; -1 = unregistered

	jittery bool // opts.Jitter > 0
	lossy   bool // opts.Loss > 0

	counters Counters
	// With KindCounts, a run of one kind — detector traffic is heartbeats by
	// the hundred — reaches counters.ByKind, one hashed insert, when it ends.
	runKind string
	runLen  int64

	// Crash state: down is nil until the first Crash, and anyDown caches
	// len(down-set) > 0 so fault-free runs pay one branch per send.
	down    []bool
	anyDown bool

	// Partition state: side is nil until the first Partition, and anyPart
	// caches whether a cut is active so partition-free runs pay one branch
	// per delivery. side[node] is 1 on the cut-off side, 0 on the rest.
	side    []uint8
	anyPart bool
}

// proc is the one record a network keeps per process, no larger than a
// cache line (TestProcFitsCacheLine): a send reads the sender's record and
// the receiver's cluster, a delivery the receiver's record.
type proc struct {
	net  *Network
	h    Handler  // nil until registered
	fl   []flight // FIFO watermarks of this sender's links in flight
	id   mutex.ID
	node int32 // physical node
	cl   int32 // the node's cluster
}

// flight is one in-flight FIFO watermark: the latest delivery instant
// scheduled on the ordered link from the owning sender to process to. A
// sender keeps only the watermarks of its links with a message in flight —
// O(messages in flight) where a process×process table would be
// O(processes²). Dropping a watermark below Now() is exact, since send only
// bumps an instant at' >= Now() past it; one equal to Now() (a zero-latency
// link) is kept. Send scans and prunes the list in one pass: O(in-flight
// links) per send, O(k²) per k-way broadcast.
type flight struct {
	to mutex.ID
	at des.Time
}

// gridModel is the slice of topology.Grid the network needs — the paper's
// latency model, a cluster-to-cluster RTT matrix plus cluster membership;
// an interface keeps simnet testable with synthetic latency functions.
type gridModel interface {
	NumNodes() int
	ClusterOf(n int) int
	RTT(a, b int) time.Duration
}

// New builds a network over sim using grid latencies.
func New(sim *des.Simulator, grid gridModel, opts Options) *Network {
	if opts.Jitter < 0 {
		panic("simnet: negative jitter")
	}
	if opts.Loss < 0 || opts.Loss >= 1 {
		panic(fmt.Sprintf("simnet: loss %v outside [0, 1)", opts.Loss))
	}
	nodes := grid.NumNodes()
	n := &Network{
		sim:     sim,
		grid:    grid,
		opts:    opts,
		jittery: opts.Jitter > 0,
		lossy:   opts.Loss > 0,
	}
	if n.jittery || n.lossy {
		n.rng = rng.New(opts.Seed)
	}
	if opts.KindCounts {
		n.counters.ByKind = make(map[string]int64)
	}
	n.base = make([]proc, nodes)
	n.growProcs(nodes)
	return n
}

// rec returns the record of id, which growProcs must have made.
func (n *Network) rec(id mutex.ID) *proc {
	if int(id) < len(n.base) {
		return &n.base[id]
	}
	return n.more[int(id)-len(n.base)]
}

// growProcs makes records for at least size IDs, never moving one.
// Endpoints and registrations are made during deployment wiring, so this
// never runs on the message hot path.
func (n *Network) growProcs(size int) {
	old := len(n.clOf)
	if size <= old {
		return
	}
	for id := mutex.ID(old); int(id) < size; id++ {
		if int(id) < len(n.base) {
			n.base[id] = proc{net: n, id: id}
		} else {
			n.more = append(n.more, &proc{net: n, id: id})
		}
		n.clOf = append(n.clOf, -1)
	}
}

// Register installs the handler for process id, hosted on the physical node
// with the same index. Registering an id twice or an id outside the
// topology panics: both are wiring bugs.
func (n *Network) Register(id mutex.ID, h Handler) {
	n.RegisterAt(id, int(id), h)
}

// RegisterAt installs the handler for logical process id hosted on physical
// topology node. Several logical processes may share one physical node
// (e.g. a multi-level hierarchy co-locating a region coordinator with a
// cluster coordinator); latency and intra/inter classification follow the
// physical node.
func (n *Network) RegisterAt(id mutex.ID, node int, h Handler) {
	n.checkNode(node)
	if id < 0 {
		panic(fmt.Sprintf("simnet: negative process id %d", id))
	}
	if int(id) < len(n.clOf) && n.clOf[id] >= 0 {
		panic(fmt.Sprintf("simnet: process %d registered twice", id))
	}
	if h == nil {
		panic("simnet: nil handler")
	}
	n.growProcs(int(id) + 1)
	r := n.rec(id)
	r.h, r.node, r.cl = h, int32(node), int32(n.grid.ClusterOf(node))
	n.clOf[id] = r.cl
}

// Endpoint returns the mutex.Env bound to process id (>= 0), its record.
// The process must be Registered before it sends or a message reaches it.
func (n *Network) Endpoint(id mutex.ID) mutex.Env {
	n.growProcs(int(id) + 1)
	return n.rec(id)
}

// Counters returns a snapshot of the message accounting so far; ByKind is
// copied, so later traffic does not change a snapshot already taken.
func (n *Network) Counters() Counters {
	n.flushKinds()
	c := n.counters
	if c.ByKind = maps.Clone(c.ByKind); len(c.ByKind) == 0 {
		c.ByKind = nil // off, or nothing counted yet
	}
	return c
}

// flushKinds adds the current run of one kind to ByKind.
func (n *Network) flushKinds() {
	if n.runLen > 0 {
		n.counters.ByKind[n.runKind] += n.runLen
		n.runLen = 0
	}
}

// Crash marks a physical node as failed: from this instant its processes
// emit nothing, and any message addressed to it — whether sent before or
// after the crash — is discarded if the node is still down when the
// message would arrive; the fail-stop model. A node that Restarts while
// a message is in flight receives it: whether a message is lost is a
// property of the receiver's state at delivery time, never of the
// instant it was sent. Crashing a crashed node is a no-op.
func (n *Network) Crash(node int) {
	n.checkNode(node)
	if n.down == nil {
		n.down = make([]bool, len(n.base))
	}
	n.down[node] = true
	n.anyDown = true
}

// Restart clears a node's crashed state: processes hosted on it can send
// and receive again. The processes' protocol state is whatever the owner
// rebuilds — the network only restores connectivity.
func (n *Network) Restart(node int) {
	n.checkNode(node)
	if n.down == nil {
		return
	}
	n.down[node] = false
	n.anyDown = false
	for _, d := range n.down {
		if d {
			n.anyDown = true
			break
		}
	}
}

// Down reports whether a physical node is currently crashed.
func (n *Network) Down(node int) bool {
	n.checkNode(node)
	return n.anyDown && n.down[node]
}

// Partition cuts the network into two sides: the given node set and the
// rest. A message whose sender-side node and receiver-side node fall on
// opposite sides of the cut when the message would *arrive* is discarded
// (counted in Counters.DroppedPartition) — the same delivery-time
// classification as crashed destinations, so a message in flight across
// the cut when Heal runs is delivered, and a message sent just before the
// cut but arriving during it is lost. The send path is untouched: loss
// and jitter rng draws are consumed and FIFO watermarks advance exactly
// as on an unpartitioned network, so traces stay byte-identical per seed
// up to the dropped deliveries themselves.
//
// Only one cut is active at a time; calling Partition again replaces the
// previous cut. An empty node set panics — it would be a no-op cut and is
// always a caller bug — as does a node outside the topology; a rejected
// call leaves the previous cut as it was.
func (n *Network) Partition(nodes []int) {
	if len(nodes) == 0 {
		panic("simnet: Partition with empty node set")
	}
	for _, node := range nodes {
		n.checkNode(node) // all of them before the previous cut is touched
	}
	if n.side == nil {
		n.side = make([]uint8, len(n.base))
	}
	for i := range n.side {
		n.side[i] = 0
	}
	for _, node := range nodes {
		n.side[node] = 1
	}
	n.anyPart = true
}

// Heal removes the active partition cut. Messages already in flight across
// the former cut are delivered normally — link state is evaluated at
// delivery time. Healing an unpartitioned network is a no-op.
func (n *Network) Heal() {
	n.anyPart = false
}

func (n *Network) checkNode(node int) {
	if node < 0 || node >= len(n.base) {
		panic(fmt.Sprintf("simnet: node %d outside topology of %d nodes", node, len(n.base)))
	}
}

// Send implements transmission with latency, jitter, FIFO per ordered link
// and accounting. The steady-state path allocates nothing: it reads the
// sender's record, the receiver's cluster and the grid's RTT, and the
// delivery is a typed des event.
func (r *proc) Send(to mutex.ID, m mutex.Message) {
	n := r.net
	if m == nil {
		panic("simnet: nil message")
	}
	if to < 0 || int(to) >= len(n.clOf) || n.clOf[to] < 0 {
		panic(fmt.Sprintf("simnet: message %s from %d to unregistered process %d", m.Kind(), r.id, to))
	}
	if r.h == nil {
		panic(fmt.Sprintf("simnet: message %s sent by unregistered process %d", m.Kind(), r.id))
	}
	// Fail-stop fault model: a dead sender emits nothing (its still-queued
	// timers may fire, but nothing leaves the node). anyDown is false until
	// the first Crash, so fault-free runs are byte-identical to builds
	// without the fault model. There is deliberately no dead-*destination*
	// check here: whether a message is lost depends on the receiver's
	// state when it arrives, not when it leaves — Deliver classifies.
	if n.anyDown && n.down[r.node] {
		return
	}
	// The paper's latency model, evaluated directly: half the round trip
	// between the two processes' clusters.
	ca, cb := r.cl, n.clOf[to]
	delay := n.grid.RTT(int(ca), int(cb)) / 2
	n.counters.note(m, ca == cb)
	if n.opts.KindCounts {
		if kind := m.Kind(); kind != n.runKind {
			n.flushKinds()
			n.runKind = kind
		}
		n.runLen++
	}
	if t := n.opts.Trace; t != nil {
		t.Record(trace.Send, r.id, to, m.Kind())
	}
	if n.lossy && n.rng.Float64() < n.opts.Loss {
		n.counters.Dropped++
		return
	}
	if n.jittery {
		delay = time.Duration(float64(delay) * (1 + n.opts.Jitter*n.rng.Float64()))
	}
	now := n.sim.Now()
	at := n.sim.In(delay)
	// FIFO per ordered pair: never deliver before an earlier message on
	// the same link. The sender's list keeps a watermark only while it can
	// still bump (see flight).
	fl, w, hit := r.fl, 0, false
	for _, f := range fl {
		switch {
		case f.to == to:
			if at <= f.at {
				// At the end of virtual time the bump saturates and
				// the link's order is the event queue's: ties fire in
				// send order.
				at = max(f.at, f.at+time.Nanosecond)
			}
			f.at, hit = at, true
		case f.at < now:
			continue // landed: can never bump again
		}
		fl[w] = f
		w++
	}
	fl = fl[:w]
	if !hit {
		// Grows to the sender's in-flight high-water mark, then reuses
		// the backing array: steady-state sends allocate nothing.
		fl = append(fl, flight{to, at})
	}
	r.fl = fl
	n.sim.AtDeliver(at, n.rec(to), r.id, m)
}

// Deliver is the delivery event's handler: it applies the checks that must
// happen at delivery time (the receiver may have crashed meanwhile) and
// tracing, then hands the message to the registered process handler.
func (r *proc) Deliver(from mutex.ID, m mutex.Message) {
	n := r.net
	if n.anyDown && n.down[r.node] {
		n.counters.DroppedDead++
		return
	}
	if n.anyPart && n.side[r.node] != n.side[n.rec(from).node] {
		n.counters.DroppedPartition++
		return
	}
	if t := n.opts.Trace; t != nil {
		t.Record(trace.Deliver, from, r.id, m.Kind())
	}
	r.h.Deliver(from, m)
}

// DeliversOnce advertises the recycling contract core.Process keys on:
// simnet hands each sent message to its destination handler at most once
// (drops lose it entirely) and keeps no reference afterwards — the trace
// and counters read only Kind and Size, at send or delivery time.
func (r *proc) DeliversOnce() {}

// Local schedules f at the current instant; FIFO ordering of the event
// queue guarantees it runs after the handler that scheduled it.
func (r *proc) Local(f func()) {
	if r.h == nil {
		panic(fmt.Sprintf("simnet: Local on unregistered process %d", r.id))
	}
	r.net.sim.After(0, f)
}

// Counters aggregates message traffic, split the way the paper reports it.
type Counters struct {
	// Messages and Bytes count every message sent.
	Messages, Bytes int64
	// Intra* count messages whose sender and receiver share a cluster.
	IntraMessages, IntraBytes int64
	// Inter* count messages crossing a cluster boundary — the quantity
	// of Figure 4(b).
	InterMessages, InterBytes int64
	// ByKind counts messages per Message.Kind. It is non-nil only when
	// Options.KindCounts is set.
	ByKind map[string]int64
	// Dropped counts messages lost to injected loss (they are included
	// in the send counts above).
	Dropped int64
	// DroppedDead counts messages discarded because their destination
	// node was crashed when the message arrived (fail-stop fault model);
	// classification happens at delivery time, so a message in flight
	// toward a node that restarts before it lands is delivered, not
	// counted here. Messages a *dead sender* tries to emit are suppressed
	// before any accounting and appear in no counter.
	DroppedDead int64
	// DroppedPartition counts messages discarded because their link
	// crossed an active partition cut when the message arrived. Like
	// DroppedDead, classification is a delivery-time property: a message
	// in flight across the cut when the partition heals is delivered.
	DroppedPartition int64
}

func (c *Counters) note(m mutex.Message, sameCluster bool) {
	size := int64(m.Size())
	c.Messages++
	c.Bytes += size
	if sameCluster {
		c.IntraMessages++
		c.IntraBytes += size
	} else {
		c.InterMessages++
		c.InterBytes += size
	}
}
