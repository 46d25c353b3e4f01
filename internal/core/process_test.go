package core

import (
	"testing"
	"time"

	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
	"gridmutex/internal/simnet"
	"gridmutex/internal/topology"
)

type poolMsg struct{}

func (poolMsg) Kind() string { return "pool" }
func (poolMsg) Size() int    { return 1 }

// TestEnvelopePoolAllocs pins the envelope freelist: in steady state a
// composed send→deliver through core.Process on simnet allocates nothing,
// because every box Deliver empties goes back on a freelist for the next
// Send. The des and simnet Allocs tests send bare messages and never
// cross Process, so only this test notices Deliver ceasing to recycle.
func TestEnvelopePoolAllocs(t *testing.T) {
	sim := des.New()
	net := simnet.New(sim, topology.Uniform(2, 2, 2*time.Millisecond, 20*time.Millisecond), simnet.Options{Jitter: 0.2, Seed: 3})
	var envs [4]mutex.Env
	for i := range envs {
		p := NewProcess(mutex.ID(i), net.Endpoint(mutex.ID(i)))
		p.Attach(0, &stubInstance{})
		net.Register(mutex.ID(i), p)
		envs[i] = p.Env(0)
	}
	msg := mutex.Message(poolMsg{}) // box once, outside the measured loop
	// Ring traffic: every process sends and receives batch/4 messages a
	// round, so each freelist ends a round as full as it started.
	const batch = 256
	round := func() {
		for i := 0; i < batch; i++ {
			envs[i%4].Send(mutex.ID((i+1)%4), msg)
		}
		sim.Run()
	}
	round() // allocates the box population
	round() // grows the freelists' and event queue's backing arrays
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("composed send→deliver allocates %.0f objects per %d-message round, want 0", allocs, batch)
	}
}
