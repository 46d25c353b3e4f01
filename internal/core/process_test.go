package core

import (
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

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
// because every box Deliver empties goes back on the list for the next
// Send. The processes of one Deployment share that list, so it never holds
// more boxes than were in flight at once. The des and simnet Allocs tests
// send bare messages and never cross Process, so only this test notices
// Deliver ceasing to recycle.
func TestEnvelopePoolAllocs(t *testing.T) {
	sim := des.New()
	net := simnet.New(sim, topology.Uniform(2, 2, 2*time.Millisecond, 20*time.Millisecond), simnet.Options{Jitter: 0.2, Seed: 3})
	const procs = 4
	d := &Deployment{}
	d.reserve(procs)
	var envs [procs]mutex.Env
	for i := range envs {
		p := d.newProcess(mutex.ID(i), net.Endpoint(mutex.ID(i)))
		p.Attach(0, &stubInstance{})
		net.Register(mutex.ID(i), p)
		envs[i] = p.Env(0)
		if p.boxes != d.boxes {
			t.Fatalf("process %d recycles through its own list, want the deployment's", i)
		}
	}
	msg := mutex.Message(poolMsg{}) // box once, outside the measured loop
	// Ring traffic: process i sends to i+1, batch/procs messages each a round.
	const batch = 256
	round := func() {
		for i := 0; i < batch; i++ {
			envs[i%procs].Send(mutex.ID((i+1)%procs), msg)
		}
		sim.Run()
	}
	round() // allocates the box population
	round() // grows the event queue's backing arrays
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("composed send→deliver allocates %.0f objects per %d-message round, want 0", allocs, batch)
	}
	if boxes, high := len(*d.boxes), sim.QueueStats().HighWater; boxes == 0 || boxes > high {
		t.Errorf("shared freelist holds %d boxes after the rounds, want 1..%d (the in-flight high-water mark)", boxes, high)
	}
}

// TestProcessLayout pins what one delivery reads of a Process to its first
// cache line: every field Deliver or levelEnv.Send reads, and the whole
// first slot, which holds the only instance of an application process. A
// whole number of lines per Process keeps every arena entry line-aligned.
func TestProcessLayout(t *testing.T) {
	var p Process
	hot := map[string]uintptr{
		"id": unsafe.Offsetof(p.id), "mask": unsafe.Offsetof(p.mask), "raw": unsafe.Offsetof(p.raw),
		"boxes": unsafe.Offsetof(p.boxes), "slots": unsafe.Offsetof(p.slots),
	}
	for name, off := range hot {
		if off >= 64 {
			t.Errorf("Process.%s at offset %d, want < 64: Deliver and Send read it", name, off)
		}
	}
	if end := unsafe.Offsetof(p.slots) + unsafe.Sizeof(p.slots[0]); end > 64 {
		t.Errorf("Process.slots[0] ends at byte %d, want <= 64", end)
	}
	if size := unsafe.Sizeof(p); size%64 != 0 {
		t.Errorf("Process is %d bytes, want a multiple of 64", size)
	}
}

// countingInstance counts its deliveries.
type countingInstance struct {
	stubInstance
	delivered int
}

func (c *countingInstance) Deliver(mutex.ID, mutex.Message) { c.delivered++ }

// nopEnv is a raw endpoint without the recycling capability, as a live
// transport's.
type nopEnv struct{}

func (nopEnv) Send(mutex.ID, mutex.Message) {}
func (nopEnv) Local(func())                 {}

// TestProcessSlots pins the two-slot contract: a third distinct level
// panics naming the two hosted ones, an instance is visible only once
// attached, and — the live-transport case the slot mask is published for —
// attaching a level while another goroutine delivers at the first is
// race-free (under -race) and the new level is delivered to afterwards.
func TestProcessSlots(t *testing.T) {
	t.Run("third level", func(t *testing.T) {
		p := NewProcess(0, nopEnv{})
		p.Env(2)
		p.Attach(3, nil)
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "hosts levels 2 and 3") {
				t.Errorf("third level: recovered %q, want a panic naming levels 2 and 3", msg)
			}
		}()
		p.Env(0)
	})
	t.Run("instance before attach", func(t *testing.T) {
		p := NewProcess(0, nopEnv{})
		p.Env(1)
		if p.Instance(1) != nil {
			t.Error("Instance(1) after Env(1) alone is not nil")
		}
		inst := &countingInstance{}
		p.Attach(1, inst)
		if p.Instance(1) != mutex.Instance(inst) || p.Instance(0) != nil {
			t.Errorf("after Attach(1): Instance(1) = %v, Instance(0) = %v", p.Instance(1), p.Instance(0))
		}
	})
	t.Run("attach while delivering", func(t *testing.T) {
		p := NewProcess(0, nopEnv{})
		low, high := &countingInstance{}, &countingInstance{}
		p.Attach(0, low)
		const n = 2000
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				p.Deliver(1, Envelope{Level: 0, Inner: poolMsg{}})
			}
		}()
		p.Env(1)
		p.Attach(1, high)
		wg.Wait()
		p.Deliver(1, Envelope{Level: 1, Inner: poolMsg{}})
		if low.delivered != n || high.delivered != 1 {
			t.Errorf("delivered %d at level 0 and %d at level 1, want %d and 1", low.delivered, high.delivered, n)
		}
	})
}
