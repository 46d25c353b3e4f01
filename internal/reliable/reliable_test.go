package reliable

import (
	"testing"
	"testing/quick"
	"time"

	"gridmutex/internal/check"
	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
	"gridmutex/internal/simnet"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

type note struct{ seq int }

func (note) Kind() string { return "note" }

type sink struct {
	got []note
}

func (s *sink) Deliver(from mutex.ID, m mutex.Message) { s.got = append(s.got, m.(note)) }

// lossyPair builds a 2-process reliable network over a lossy simulated
// fabric.
func lossyPair(loss float64, seed int64) (*des.Simulator, *Network, *sink) {
	sim := des.New()
	grid := topology.Single(2, 10*time.Millisecond)
	inner := simnet.New(sim, grid, simnet.Options{Loss: loss, Seed: seed})
	rel := Wrap(inner, sim, Options{RTO: 30 * time.Millisecond})
	s := &sink{}
	rel.RegisterAt(0, 0, &sink{})
	rel.RegisterAt(1, 1, s)
	return sim, rel, s
}

func TestInOrderDeliveryUnderHeavyLoss(t *testing.T) {
	sim, rel, s := lossyPair(0.4, 3)
	ep := rel.Endpoint(0)
	const k = 200
	for i := 0; i < k; i++ {
		i := i
		sim.At(des.Time(i)*time.Millisecond, func() { ep.Send(1, note{seq: i}) })
	}
	if err := sim.RunCapped(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != k {
		t.Fatalf("delivered %d, want %d (stats %+v)", len(s.got), k, rel.Stats())
	}
	for i, m := range s.got {
		if m.seq != i {
			t.Fatalf("position %d has seq %d — reordered or lost", i, m.seq)
		}
	}
	st := rel.Stats()
	if st.Retransmits == 0 {
		t.Error("40% loss produced no retransmissions")
	}
	if st.GivenUp != 0 {
		t.Errorf("%d packets abandoned despite retries", st.GivenUp)
	}
	if !rel.Quiesced() {
		t.Errorf("unacknowledged packets remain: %v", rel.PendingSeqs(0, 1))
	}
}

func TestNoLossNoRetransmits(t *testing.T) {
	sim, rel, s := lossyPair(0, 1)
	ep := rel.Endpoint(0)
	for i := 0; i < 50; i++ {
		ep.Send(1, note{seq: i})
	}
	sim.Run()
	if len(s.got) != 50 {
		t.Fatalf("delivered %d", len(s.got))
	}
	st := rel.Stats()
	if st.Retransmits != 0 || st.Duplicates != 0 {
		t.Errorf("clean link produced %d retransmits, %d dups", st.Retransmits, st.Duplicates)
	}
	if st.DataSent != 50 || st.AcksSent != 50 {
		t.Errorf("stats %+v", st)
	}
}

func TestGivesUpOnDeadLink(t *testing.T) {
	sim, rel, s := lossyPair(0.999999, 5) // effectively dead
	// Make loss certain by using a fresh network with Loss just under 1.
	ep := rel.Endpoint(0)
	ep.Send(1, note{seq: 0})
	if err := sim.RunCapped(1_000_000); err != nil {
		t.Fatal(err)
	}
	st := rel.Stats()
	if st.GivenUp == 0 && len(s.got) == 0 {
		t.Errorf("dead link neither delivered nor gave up: %+v", st)
	}
	if !rel.Quiesced() {
		t.Error("outstanding state retained after giving up")
	}
}

// TestRetryBudgetTowardCrashedNode: toward a crashed node every
// transmission is discarded, so the budget is spent exactly — MaxRetries
// retransmissions, then one packet given up and nothing retained.
func TestRetryBudgetTowardCrashedNode(t *testing.T) {
	sim := des.New()
	grid := topology.Single(2, 10*time.Millisecond)
	inner := simnet.New(sim, grid, simnet.Options{Seed: 4})
	rel := Wrap(inner, sim, Options{RTO: 20 * time.Millisecond, MaxRetries: 3})
	s := &sink{}
	rel.RegisterAt(0, 0, &sink{})
	rel.RegisterAt(1, 1, s)
	inner.Crash(1)
	rel.Endpoint(0).Send(1, note{seq: 7})
	if err := sim.RunCapped(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 0 {
		t.Fatalf("crashed node received %d messages", len(s.got))
	}
	if st := rel.Stats(); st.GivenUp != 1 || st.Retransmits != 3 {
		t.Fatalf("stats %+v, want 1 given up after 3 retransmits", st)
	}
	// Backoff doubles the timeout: 20 + 40 + 80 + 160 ms to the give-up.
	if got, want := sim.Now(), 300*time.Millisecond; got != want {
		t.Errorf("gave up at %v, want %v", got, want)
	}
	if !rel.Quiesced() {
		t.Error("outstanding state retained after giving up")
	}
}

// The end-to-end loss matrix (composition completing at 5% and 20% loss)
// is declarative now: testdata/scenarios/lossy-composition-{5,20}.yaml,
// run by internal/scenario's corpus sweep. The two tests below stay as
// the Go-coded guards: one positive (completion under loss with the
// wrapper) and one negative (stall without it).

// TestComposedDeploymentSurvivesLoss: the full composition completes with
// safety over a 15%-lossy grid once the reliable layer is in place.
func TestComposedDeploymentSurvivesLoss(t *testing.T) {
	sim := des.New()
	grid := topology.Uniform(3, 4, time.Millisecond, 16*time.Millisecond)
	inner := simnet.New(sim, grid, simnet.Options{Loss: 0.15, Seed: 9})
	rel := Wrap(inner, sim, Options{RTO: 60 * time.Millisecond})
	mon := check.NewMonitor(sim)
	runner, err := workload.NewRunner(sim, workload.Params{
		Alpha: 5 * time.Millisecond, Rho: 15, Dist: workload.Exponential,
		CSPerProcess: 8, Seed: 9,
	}, mon)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildComposed(rel, grid, core.Spec{Intra: "naimi", Inter: "naimi"}, runner.Callbacks)
	if err != nil {
		t.Fatal(err)
	}
	runner.Bind(d.Apps)
	runner.Start()
	if err := sim.RunCapped(10_000_000); err != nil {
		t.Fatalf("did not drain: %v (outstanding %d, stats %+v)", err, runner.Outstanding(), rel.Stats())
	}
	mon.AssertQuiescent()
	if !mon.Ok() {
		t.Fatalf("violations under loss: %v", mon.Violations()[0])
	}
	if !runner.Done() {
		t.Fatalf("liveness under loss: %d outstanding", runner.Outstanding())
	}
	st := rel.Stats()
	if st.Retransmits == 0 {
		t.Error("15% loss produced no retransmissions")
	}
	if dropped := inner.Counters().Dropped; dropped == 0 {
		t.Error("loss injection inactive")
	}
	t.Logf("survived: %d data, %d retransmits, %d dups, %d dropped",
		st.DataSent, st.Retransmits, st.Duplicates, inner.Counters().Dropped)
}

// TestComposedDeploymentStallsWithoutReliability documents the assumption:
// the same lossy run without the wrapper does NOT complete (requests or
// tokens vanish).
func TestComposedDeploymentStallsWithoutReliability(t *testing.T) {
	sim := des.New()
	grid := topology.Uniform(3, 4, time.Millisecond, 16*time.Millisecond)
	inner := simnet.New(sim, grid, simnet.Options{Loss: 0.15, Seed: 9})
	runner, err := workload.NewRunner(sim, workload.Params{
		Alpha: 5 * time.Millisecond, Rho: 15, Dist: workload.Exponential,
		CSPerProcess: 8, Seed: 9,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildComposed(inner, grid, core.Spec{Intra: "naimi", Inter: "naimi"}, runner.Callbacks)
	if err != nil {
		t.Fatal(err)
	}
	runner.Bind(d.Apps)
	runner.Start()
	if err := sim.RunCapped(10_000_000); err != nil {
		t.Fatal(err)
	}
	if runner.Done() {
		t.Skip("lucky seed: no critical message was dropped") // extremely unlikely
	}
	// Expected: the run stalls — that is the point being documented.
}

// TestPropertyLossRates: delivery stays exactly-once in-order across random
// loss rates and seeds. Loss is capped at 50% and the retry budget raised
// so that the probability of a packet losing all 21 transmissions (the
// only legitimate failure mode) is below 1e-6 per packet.
func TestPropertyLossRates(t *testing.T) {
	f := func(seed int64, rawLoss uint8) bool {
		loss := float64(rawLoss%51) / 100 // 0% .. 50%
		sim := des.New()
		grid := topology.Single(2, 10*time.Millisecond)
		inner := simnet.New(sim, grid, simnet.Options{Loss: loss, Seed: seed})
		rel := Wrap(inner, sim, Options{RTO: 30 * time.Millisecond, MaxRetries: 20})
		s := &sink{}
		rel.RegisterAt(0, 0, &sink{})
		rel.RegisterAt(1, 1, s)
		ep := rel.Endpoint(0)
		const k = 60
		for i := 0; i < k; i++ {
			i := i
			sim.At(des.Time(i)*time.Millisecond, func() { ep.Send(1, note{seq: i}) })
		}
		if err := sim.RunCapped(2_000_000); err != nil {
			return false
		}
		if len(s.got) != k {
			return false
		}
		for i, m := range s.got {
			if m.seq != i {
				return false
			}
		}
		return rel.Stats().GivenUp == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWrapPanics(t *testing.T) {
	sim := des.New()
	grid := topology.Single(2, time.Millisecond)
	inner := simnet.New(sim, grid, simnet.Options{})
	for name, f := range map[string]func(){
		"nil fabric": func() { Wrap(nil, sim, Options{}) },
		"nil timer":  func() { Wrap(inner, nil, Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
	rel := Wrap(inner, sim, Options{})
	rel.RegisterAt(0, 0, &sink{})
	for name, f := range map[string]func(){
		"nil handler":        func() { rel.RegisterAt(1, 1, nil) },
		"duplicate register": func() { rel.RegisterAt(0, 0, &sink{}) },
		"unregistered send":  func() { rel.Endpoint(5).Send(0, note{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPacketMetadata(t *testing.T) {
	p := Packet{Seq: 1, M: note{}}
	if p.Kind() != "note" {
		t.Errorf("packet kind %q, want the payload's", p.Kind())
	}
	if (Ack{}).Kind() != "reliable.ack" {
		t.Error("ack metadata")
	}
}

func TestPendingSeqsAndLocal(t *testing.T) {
	sim := des.New()
	grid := topology.Single(2, 10*time.Millisecond)
	inner := simnet.New(sim, grid, simnet.Options{Loss: 0.999999, Seed: 2})
	rel := Wrap(inner, sim, Options{RTO: time.Hour}) // freeze retransmits
	rel.RegisterAt(0, 0, &sink{})
	rel.RegisterAt(1, 1, &sink{})
	ep := rel.Endpoint(0)
	ep.Send(1, note{seq: 1})
	ep.Send(1, note{seq: 2})
	if got := rel.PendingSeqs(0, 1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("PendingSeqs = %v", got)
	}
	if rel.PendingSeqs(1, 0) != nil {
		t.Fatal("phantom pending on unused link")
	}
	if rel.Quiesced() {
		t.Fatal("Quiesced with outstanding packets")
	}
	// Local runs on the inner serial context.
	ran := false
	ep.Local(func() { ran = true })
	sim.RunFor(time.Minute)
	if !ran {
		t.Fatal("Local closure never ran")
	}
}

func TestRawMessageOnWrappedFabricPanics(t *testing.T) {
	sim := des.New()
	grid := topology.Single(2, time.Millisecond)
	inner := simnet.New(sim, grid, simnet.Options{})
	rel := Wrap(inner, sim, Options{})
	rel.RegisterAt(0, 0, &sink{})
	// Bypass the wrapper: send a bare message straight at the inner
	// fabric address.
	inner.RegisterAt(1, 1, handlerStub{})
	inner.Endpoint(1).Send(0, note{seq: 1})
	defer func() {
		if recover() == nil {
			t.Error("bare message did not panic the receiver")
		}
	}()
	sim.Run()
}

type handlerStub struct{}

func (handlerStub) Deliver(mutex.ID, mutex.Message) {}

func TestLocalOnUnregisteredPanics(t *testing.T) {
	sim := des.New()
	grid := topology.Single(1, time.Millisecond)
	rel := Wrap(simnet.New(sim, grid, simnet.Options{}), sim, Options{})
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	rel.Endpoint(9).Local(func() {})
}
