// Package algotest provides a reusable simulation driver for exercising any
// mutex.Instance implementation: it runs a set of application processes on
// the discrete-event simulator, continuously asserts the safety property
// (at most one process in the critical section) and checks liveness (every
// request is eventually granted).
package algotest

import (
	"fmt"
	"math/rand"
	"time"

	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
	"gridmutex/internal/simnet"
	"gridmutex/internal/topology"
)

// Workload describes the synthetic application each node runs.
type Workload struct {
	// Nodes is the number of participants.
	Nodes int
	// RequestsPerNode is how many critical sections each node executes.
	RequestsPerNode int
	// CS is the critical section duration (α in the paper).
	CS time.Duration
	// MaxThink bounds the uniformly random idle time between a release
	// and the next request (related to β in the paper). Zero means
	// back-to-back requests.
	MaxThink time.Duration
	// Seed drives all randomness in the run.
	Seed int64
	// PermissionBased relaxes the quiescence check: permission-based
	// algorithms leave no token anywhere after the run.
	PermissionBased bool
	// LocalRTT is the round-trip latency between any two nodes.
	LocalRTT time.Duration
}

// DefaultWorkload is a medium-contention configuration that finishes fast.
func DefaultWorkload() Workload {
	return Workload{
		Nodes:           8,
		RequestsPerNode: 25,
		CS:              2 * time.Millisecond,
		MaxThink:        10 * time.Millisecond,
		Seed:            1,
		LocalRTT:        2 * time.Millisecond,
	}
}

// Result summarizes a completed run.
type Result struct {
	// Grants counts successful critical section entries (should equal
	// Nodes*RequestsPerNode).
	Grants int
	// Counters is the network traffic accounting.
	Counters simnet.Counters
	// VirtualTime is the instant the last event fired.
	VirtualTime des.Time
	// Order records the sequence of node IDs that entered the CS.
	Order []mutex.ID
}

// MessagesPerCS returns average messages sent per critical section entry.
func (r Result) MessagesPerCS() float64 {
	if r.Grants == 0 {
		return 0
	}
	return float64(r.Counters.Messages) / float64(r.Grants)
}

// proc is one application process driving one instance.
type proc struct {
	id        mutex.ID
	inst      mutex.Instance
	remaining int
}

// Run executes the workload against the algorithm built by factory and
// verifies safety and liveness, reporting any violation through fail
// (typically t.Fatalf or a collector). It returns the run's Result.
func Run(factory mutex.Factory, w Workload, fail func(format string, args ...any)) Result {
	sim := des.New()
	grid := topology.Single(w.Nodes, w.LocalRTT)
	net := simnet.New(sim, grid, simnet.Options{})
	rng := rand.New(rand.NewSource(w.Seed))

	inCS := mutex.None // safety monitor: who is in the CS right now
	res := Result{}
	procs := make([]*proc, w.Nodes)
	members := make([]mutex.ID, w.Nodes)
	for i := range members {
		members[i] = mutex.ID(i)
	}

	think := func() time.Duration {
		if w.MaxThink <= 0 {
			return 0
		}
		return time.Duration(rng.Int63n(int64(w.MaxThink)))
	}

	for i := 0; i < w.Nodes; i++ {
		p := &proc{id: mutex.ID(i), remaining: w.RequestsPerNode}
		env := net.Endpoint(p.id)
		inst, err := factory(mutex.Config{
			Self:    p.id,
			Members: members,
			Holder:  0,
			Env:     env,
			Callbacks: mutex.Callbacks{
				OnAcquire: func() {
					if inCS != mutex.None {
						fail("safety violation: node %d acquired while node %d is in CS (t=%v)", p.id, inCS, sim.Now())
						return
					}
					if p.inst.State() != mutex.InCS {
						fail("node %d: OnAcquire fired but State() = %v", p.id, p.inst.State())
					}
					if !p.inst.HoldsToken() {
						fail("node %d: in CS without holding the token", p.id)
					}
					inCS = p.id
					res.Grants++
					res.Order = append(res.Order, p.id)
					sim.After(w.CS, func() {
						inCS = mutex.None
						p.inst.Release()
						p.remaining--
						if p.remaining > 0 {
							sim.After(think(), p.inst.Request)
						}
					})
				},
			},
		})
		if err != nil {
			fail("factory: %v", err)
			return res
		}
		p.inst = inst
		procs[i] = p
		net.Register(p.id, simnet.HandlerFunc(inst.Deliver))
		sim.After(think(), inst.Request)
	}

	// Generous cap: a livelocked algorithm would spin forever otherwise.
	limit := uint64(w.Nodes*w.RequestsPerNode)*1000 + 100000
	if err := sim.RunCapped(limit); err != nil {
		fail("livelock suspected: %v", err)
	}

	for _, p := range procs {
		if p.remaining != 0 {
			fail("liveness violation: node %d still has %d requests outstanding", p.id, p.remaining)
		}
		if p.inst.State() != mutex.NoReq {
			fail("node %d finished in state %v", p.id, p.inst.State())
		}
	}
	if want := w.Nodes * w.RequestsPerNode; res.Grants != want {
		fail("granted %d critical sections, want %d", res.Grants, want)
	}
	holders := 0
	for _, p := range procs {
		if p.inst.HoldsToken() {
			holders++
		}
	}
	wantHolders := 1
	if w.PermissionBased {
		wantHolders = 0
	}
	if holders != wantHolders {
		fail("%d token holders at quiescence, want exactly %d", holders, wantHolders)
	}
	res.Counters = net.Counters()
	res.VirtualTime = sim.Now()
	return res
}

// Collector accumulates failures as strings.
type Collector struct{ Failures []string }

// Fail records a formatted failure.
func (c *Collector) Fail(format string, args ...any) {
	c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
}
