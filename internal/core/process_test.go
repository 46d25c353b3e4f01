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
	d.Reserve(procs)
	var envs [procs]mutex.Env
	for i := range envs {
		p := d.Register(net, mutex.ID(i), i)
		p.Attach(0, &stubInstance{})
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

// TestProcessLayout pins a Process to exactly one cache line: a delivery
// and a send read only it, and every arena entry stays line-aligned.
func TestProcessLayout(t *testing.T) {
	if size := unsafe.Sizeof(Process{}); size != 64 {
		t.Errorf("Process is %d bytes, want 64", size)
	}
}

// countingInstance counts its deliveries.
type countingInstance struct {
	stubInstance
	delivered int
}

func (c *countingInstance) Deliver(mutex.ID, mutex.Message) { c.delivered++ }

// recordingEnv is a raw endpoint that records the envelopes sent through
// it and whether each came in a pooled box.
type recordingEnv struct {
	sent   []Envelope
	pooled []bool
}

func (r *recordingEnv) Send(_ mutex.ID, m mutex.Message) {
	switch v := m.(type) {
	case Envelope:
		r.sent, r.pooled = append(r.sent, v), append(r.pooled, false)
	case *pooledEnvelope:
		r.sent, r.pooled = append(r.sent, v.Envelope), append(r.pooled, true)
	}
}
func (r *recordingEnv) Local(f func()) { f() }

// recordingOnceEnv advertises the recycling capability.
type recordingOnceEnv struct{ *recordingEnv }

func (*recordingOnceEnv) DeliversOnce() {}

// nopEnv is a raw endpoint without the recycling capability, as a live
// transport's.
type nopEnv struct{}

func (nopEnv) Send(mutex.ID, mutex.Message) {}
func (nopEnv) Local(func())                 {}

// TestProcessSlots pins the two-slot contract: a third distinct level
// panics naming the two hosted ones, an instance is visible only once
// attached, and — the live-transport case the state word is published for —
// attaching a level while another goroutine delivers at the first is
// race-free (under -race) and the new level is delivered to afterwards.
// The slots are claimed and attached by compare-and-swap on one state
// word: two levels claimed at once get a slot each, two Attaches at one
// level leave exactly one panicking, and each Env sends at its own level.
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
	t.Run("two levels racing", func(t *testing.T) {
		for round := 0; round < 1000; round++ {
			p := NewProcess(0, nopEnv{})
			insts := [2]*countingInstance{{}, {}}
			envs := [2]mutex.Env{}
			var wg sync.WaitGroup
			start := make(chan struct{})
			for l := range insts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					envs[l] = p.Env(Level(l))
					p.Attach(Level(l), insts[l])
				}()
			}
			close(start)
			wg.Wait()
			if envs[0] == envs[1] {
				t.Fatalf("round %d: levels 0 and 1 share one slot's Env", round)
			}
			for l, inst := range insts {
				if p.Instance(Level(l)) != mutex.Instance(inst) || p.Env(Level(l)) != envs[l] {
					t.Fatalf("round %d: level %d's instance or Env is not the one attached", round, l)
				}
			}
		}
	})
	t.Run("attaches racing at one level", func(t *testing.T) {
		for round := 0; round < 1000; round++ {
			p := NewProcess(0, nopEnv{})
			var wg sync.WaitGroup
			var panics [2]string
			start := make(chan struct{})
			for g := range panics {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { panics[g], _ = recover().(string) }()
					<-start
					p.Attach(1, &countingInstance{})
				}()
			}
			close(start)
			wg.Wait()
			n := 0
			for _, msg := range panics {
				if strings.Contains(msg, "already has an instance at level 1") {
					n++
				} else if msg != "" {
					t.Fatalf("round %d: unexpected panic %q", round, msg)
				}
			}
			if n != 1 || p.Instance(1) == nil {
				t.Fatalf("round %d: %d of two racing Attaches panicked, want exactly 1", round, n)
			}
		}
	})
	t.Run("each Env sends at its level", func(t *testing.T) {
		for _, pooled := range []bool{true, false} {
			r := &recordingEnv{}
			var raw mutex.Env = r
			if pooled {
				raw = &recordingOnceEnv{r}
			}
			// A coordinator's shape: its parent level claimed first, then its
			// unit's, so neither level equals its slot's index.
			p := NewProcess(0, raw)
			upper, unit := p.Env(3), p.Env(2)
			p.Attach(3, &countingInstance{})
			p.Attach(2, &countingInstance{})
			if p.Env(3) != upper || p.Env(2) != unit || upper == unit {
				t.Fatalf("Env(3), Env(2) = %v, %v then %v, %v: want one distinct value per level", upper, unit, p.Env(3), p.Env(2))
			}
			unit.Send(1, poolMsg{})
			upper.Send(1, poolMsg{})
			unit.Send(1, poolMsg{})
			for i, want := range []Level{2, 3, 2} {
				if i >= len(r.sent) || r.sent[i].Level != want || r.pooled[i] != pooled {
					t.Fatalf("pooled=%v: sends carried %v (pooled %v), want levels 2, 3, 2", pooled, r.sent, r.pooled)
				}
			}
		}
	})
}
