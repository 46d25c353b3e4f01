package adaptive

import (
	"testing"
	"time"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/algorithms/algotest"
	"gridmutex/internal/algorithms/naimitrehel"
	"gridmutex/internal/algorithms/suzukikasami"
	"gridmutex/internal/check"
	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
	"gridmutex/internal/simnet"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

func TestNewFactoryRejectsUnknownInitial(t *testing.T) {
	if _, err := NewFactory(Config{Initial: "bogus"}); err == nil {
		t.Fatal("unknown initial algorithm accepted")
	}
}

func TestFactoryRejectsBadConfig(t *testing.T) {
	f, err := NewFactory(Config{Initial: "naimi"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f(mutex.Config{}); err == nil {
		t.Fatal("invalid mutex config accepted")
	}
}

// scriptedPolicy recommends a fixed sequence of targets, advancing on each
// successful... it simply recommends targets[i] and advances every time it
// is consulted.
type scriptedPolicy struct {
	targets []string
	i       int
}

func (p *scriptedPolicy) ObserveGrant()       {}
func (p *scriptedPolicy) ObservePending()     {}
func (p *scriptedPolicy) ObserveRelease(bool) {}
func (p *scriptedPolicy) Recommend(current string) string {
	if p.i >= len(p.targets) {
		return current
	}
	t := p.targets[p.i]
	if t != current {
		// keep recommending this target until it is installed
		return t
	}
	p.i++
	if p.i < len(p.targets) {
		return p.targets[p.i]
	}
	return current
}

// buildAdaptiveGrid assembles a composed deployment whose inter level is
// adaptive.
func buildAdaptiveGrid(t *testing.T, grid *topology.Grid, cfg Config, runner *workload.Runner, net *simnet.Network) *core.Deployment {
	t.Helper()
	intraF, err := algorithms.Factory("naimi")
	if err != nil {
		t.Fatal(err)
	}
	adaptF, err := NewFactory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildMultiLevelWith(net, grid, []mutex.Factory{intraF, adaptF}, nil, runner.Callbacks)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSwitchHappensAndStaysSafe: a scripted policy drives the composition
// through naimi -> suzuki -> martin while a workload runs; every grant stays
// mutually exclusive and all requests complete.
func TestSwitchHappensAndStaysSafe(t *testing.T) {
	grid := topology.Uniform(3, 4, time.Millisecond, 16*time.Millisecond)
	sim := des.New()
	net := simnet.New(sim, grid, simnet.Options{})
	mon := check.NewMonitor(sim)
	runner, err := workload.NewRunner(sim, workload.Params{
		Alpha: 3 * time.Millisecond, Rho: 30, Dist: workload.Exponential,
		CSPerProcess: 20, Seed: 5,
	}, mon)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Initial:   "naimi",
		NewPolicy: func() Policy { return &scriptedPolicy{targets: []string{"suzuki", "martin"}} },
	}
	d := buildAdaptiveGrid(t, grid, cfg, runner, net)
	runner.Bind(d.Apps)
	runner.Start()
	if err := sim.RunCapped(5_000_000); err != nil {
		t.Fatalf("did not drain: %v", err)
	}
	mon.AssertQuiescent()
	if !mon.Ok() {
		t.Fatalf("violations: %v", mon.Violations()[0])
	}
	if !runner.Done() {
		t.Fatalf("liveness: %d outstanding", runner.Outstanding())
	}
	// Every coordinator's inter instance must have converged to the same
	// generation and algorithm, with at least one switch committed.
	var alg string
	var gen int64 = -1
	for _, c := range d.Coordinators {
		proc := d.Procs[c.ID()]
		w, ok := proc.Instance(1).(*Instance)
		if !ok {
			t.Fatalf("inter instance is %T, want adaptive", proc.Instance(1))
		}
		if gen == -1 {
			gen, alg = w.Generation(), w.Algorithm()
		}
		if w.Generation() != gen || w.Algorithm() != alg {
			t.Fatalf("coordinator %d at gen %d/%s, others at %d/%s",
				c.ID(), w.Generation(), w.Algorithm(), gen, alg)
		}
	}
	if gen == 0 {
		t.Fatal("no switch ever committed")
	}
	t.Logf("converged after %d generations on %s", gen, alg)
}

// TestChurnPolicyStaysCorrect: a policy that permanently wants to rotate
// algorithms switches as often as quiescence allows; safety and liveness
// must survive the churn.
func TestChurnPolicyStaysCorrect(t *testing.T) {
	rotation := []string{"naimi", "suzuki", "martin", "raymond", "central"}
	grid := topology.Uniform(3, 3, time.Millisecond, 10*time.Millisecond)
	sim := des.New()
	net := simnet.New(sim, grid, simnet.Options{})
	mon := check.NewMonitor(sim)
	runner, err := workload.NewRunner(sim, workload.Params{
		Alpha: 2 * time.Millisecond, Rho: 40, Dist: workload.Exponential,
		CSPerProcess: 30, Seed: 9,
	}, mon)
	if err != nil {
		t.Fatal(err)
	}
	next := func(current string) string {
		for i, a := range rotation {
			if a == current {
				return rotation[(i+1)%len(rotation)]
			}
		}
		return rotation[0]
	}
	cfg := Config{
		Initial:   "naimi",
		NewPolicy: func() Policy { return policyFunc{rec: next} },
	}
	d := buildAdaptiveGrid(t, grid, cfg, runner, net)
	runner.Bind(d.Apps)
	runner.Start()
	if err := sim.RunCapped(8_000_000); err != nil {
		t.Fatalf("did not drain: %v", err)
	}
	mon.AssertQuiescent()
	if !mon.Ok() {
		t.Fatalf("violations under churn: %v", mon.Violations()[0])
	}
	if !runner.Done() {
		t.Fatalf("liveness under churn: %d outstanding", runner.Outstanding())
	}
	w := d.Procs[d.Coordinators[0].ID()].Instance(1).(*Instance)
	if w.Generation() < 2 {
		t.Fatalf("churn produced only %d switches", w.Generation())
	}
	t.Logf("churn run committed %d switches", w.Generation())
}

type policyFunc struct {
	rec func(string) string
}

func (policyFunc) ObserveGrant()                 {}
func (policyFunc) ObservePending()               {}
func (policyFunc) ObserveRelease(bool)           {}
func (p policyFunc) Recommend(cur string) string { return p.rec(cur) }

// TestNoPolicyNeverSwitches: with a nil policy the wrapper is a transparent
// pass-through.
func TestNoPolicyNeverSwitches(t *testing.T) {
	grid := topology.Uniform(2, 3, time.Millisecond, 10*time.Millisecond)
	sim := des.New()
	// KindCounts: the no-protocol-messages check below reads ByKind.
	net := simnet.New(sim, grid, simnet.Options{KindCounts: true})
	runner, err := workload.NewRunner(sim, workload.Params{
		Alpha: 2 * time.Millisecond, Rho: 10, Dist: workload.Exponential,
		CSPerProcess: 10, Seed: 3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := buildAdaptiveGrid(t, grid, Config{Initial: "martin"}, runner, net)
	runner.Bind(d.Apps)
	runner.Start()
	if err := sim.RunCapped(2_000_000); err != nil {
		t.Fatal(err)
	}
	if !runner.Done() {
		t.Fatal("incomplete")
	}
	for _, c := range d.Coordinators {
		w := d.Procs[c.ID()].Instance(1).(*Instance)
		if w.Generation() != 0 || w.Algorithm() != "martin" {
			t.Fatalf("nil policy switched: gen %d alg %s", w.Generation(), w.Algorithm())
		}
	}
	// No protocol messages may appear on the wire.
	for kind := range net.Counters().ByKind {
		if kind == "adaptive.prepare" || kind == "adaptive.vote" || kind == "adaptive.commit" || kind == "adaptive.abort" {
			t.Fatalf("nil policy sent %s", kind)
		}
	}
}

// TestAbortPath drives a Prepare into a member with an outstanding request
// using the manual world, verifying the Nack/Abort path leaves everyone
// consistent.
func TestAbortPath(t *testing.T) {
	w := algotest.NewWorld()
	members := []mutex.ID{0, 1, 2}
	cfg := Config{Initial: "naimi", NewPolicy: func() Policy {
		return policyFunc{rec: func(cur string) string { return "suzuki" }}
	}}
	factory, err := NewFactory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := w.Build(factory, members, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a0 := insts[0].(*Instance)
	a1 := insts[1].(*Instance)

	// Member 1 requests; its request is in flight toward 0.
	a1.Request()
	// Member 0 cycles through a CS; on release its policy proposes
	// switching to suzuki (it holds the token, idle, no pending known).
	a0.Request()
	w.Settle()
	a0.Release()
	// Prepare messages are now in flight alongside member 1's request.
	prepares := 0
	for _, s := range w.Inflight() {
		if s.Msg.Kind() == "adaptive.prepare" {
			prepares++
		}
	}
	if prepares != 2 {
		t.Fatalf("%d prepares in flight, want 2", prepares)
	}
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
	// Member 1 must have Nacked (outstanding request), the proposal must
	// have aborted, and member 1's request must still be served by the
	// original algorithm.
	if a1.State() != mutex.InCS {
		t.Fatalf("member 1 state %v, want CS (request served despite proposal)", a1.State())
	}
	for i, inst := range insts {
		ai := inst.(*Instance)
		if ai.Generation() != 0 || ai.Algorithm() != "naimi" {
			t.Fatalf("member %d switched after abort: gen %d alg %s", i, ai.Generation(), ai.Algorithm())
		}
		if ai.frozen {
			t.Fatalf("member %d still frozen after abort", i)
		}
	}
	a1.Release()
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
}

// TestCommitPathManual: with no contention the proposal commits and all
// members install the new algorithm with the proposer as holder.
func TestCommitPathManual(t *testing.T) {
	w := algotest.NewWorld()
	members := []mutex.ID{0, 1, 2}
	cfg := Config{Initial: "naimi", NewPolicy: func() Policy {
		return policyFunc{rec: func(cur string) string {
			if cur == "naimi" {
				return "martin"
			}
			return cur
		}}
	}}
	factory, err := NewFactory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := w.Build(factory, members, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a0 := insts[0].(*Instance)
	a0.Request()
	w.Settle()
	a0.Release()
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
	for i, inst := range insts {
		ai := inst.(*Instance)
		if ai.Algorithm() != "martin" || ai.Generation() != 1 {
			t.Fatalf("member %d: alg %s gen %d, want martin gen 1", i, ai.Algorithm(), ai.Generation())
		}
	}
	if !a0.HoldsToken() {
		t.Fatal("proposer does not hold the new token")
	}
	// The new ring must work: member 2 requests and gets the CS.
	a2 := insts[2].(*Instance)
	a2.Request()
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
	if a2.State() != mutex.InCS {
		t.Fatalf("member 2 state %v on the new ring", a2.State())
	}
}

// TestBufferedRequestDuringSwitch: a Request issued between Ack and Commit
// is buffered and replayed on the new instance.
func TestBufferedRequestDuringSwitch(t *testing.T) {
	w := algotest.NewWorld()
	members := []mutex.ID{0, 1}
	cfg := Config{Initial: "naimi", NewPolicy: func() Policy {
		return policyFunc{rec: func(cur string) string {
			if cur == "naimi" {
				return "suzuki"
			}
			return cur
		}}
	}}
	factory, err := NewFactory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := w.Build(factory, members, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a0, a1 := insts[0].(*Instance), insts[1].(*Instance)
	a0.Request()
	w.Settle()
	a0.Release() // proposes switch to suzuki
	// Deliver prepare to member 1; it Acks and freezes.
	w.DeliverNext()
	if !a1.frozen {
		t.Fatal("member 1 not frozen after Ack")
	}
	// Frozen member 1 requests: buffered.
	a1.Request()
	if a1.State() != mutex.Req {
		t.Fatalf("buffered request not visible in State: %v", a1.State())
	}
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
	if a1.Algorithm() != "suzuki" {
		t.Fatalf("member 1 on %s, want suzuki", a1.Algorithm())
	}
	if a1.State() != mutex.InCS {
		t.Fatalf("buffered request not granted on new instance: %v", a1.State())
	}
}

func TestMessageMetadata(t *testing.T) {
	at := Attempt{Proposer: 1, Seq: 2}
	msgs := []mutex.Message{
		Prepare{Attempt: at, Alg: "naimi"},
		Vote{Attempt: at, Ok: true},
		Commit{Attempt: at, Gen: 1, Alg: "naimi"},
		Abort{Attempt: at},
	}
	seen := map[string]bool{}
	for _, m := range msgs {
		if m.Size() <= 0 {
			t.Errorf("%T has non-positive size", m)
		}
		if seen[m.Kind()] {
			t.Errorf("duplicate kind %q", m.Kind())
		}
		seen[m.Kind()] = true
	}
	in := Inner{Gen: 3, M: Prepare{}}
	if in.Kind() != "adaptive.prepare" {
		t.Errorf("Inner.Kind = %q", in.Kind())
	}
	if in.Size() != (Prepare{}).Size()+8 {
		t.Errorf("Inner.Size = %d", in.Size())
	}
}

// switchWorld builds a 3-member manual world whose member 0 proposes
// switching naimi -> suzuki on its first release.
func switchWorld(t *testing.T) (*algotest.World, []*Instance) {
	t.Helper()
	w := algotest.NewWorld()
	cfg := Config{Initial: "naimi", NewPolicy: func() Policy {
		return policyFunc{rec: func(cur string) string {
			if cur == "naimi" {
				return "suzuki"
			}
			return cur
		}}
	}}
	factory, err := NewFactory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := w.Build(factory, []mutex.ID{0, 1, 2}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Instance, len(insts))
	for i, in := range insts {
		out[i] = in.(*Instance)
	}
	return w, out
}

// TestStaleGenerationDropped: after a committed switch, traffic from the
// replaced generation is discarded.
func TestStaleGenerationDropped(t *testing.T) {
	w, a := switchWorld(t)
	a[0].Request()
	w.Settle()
	a[0].Release()
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
	if a[1].Generation() != 1 || a[1].Algorithm() != "suzuki" {
		t.Fatalf("switch did not commit: gen %d alg %s", a[1].Generation(), a[1].Algorithm())
	}
	// A late gen-0 naimi request arrives at member 1: must be dropped
	// without disturbing the new instance.
	a[1].Deliver(2, Inner{Gen: 0, M: naimitrehel.Request{Origin: 2}})
	w.Settle()
	if len(w.Inflight()) != 0 {
		t.Fatal("stale message caused traffic")
	}
	// The new instance still works end to end.
	a[2].Request()
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
	if a[2].State() != mutex.InCS {
		t.Fatalf("member 2 state %v on new instance", a[2].State())
	}
}

// TestFutureGenerationBuffered: a new-generation message racing ahead of
// the local Commit is buffered and replayed once the Commit lands.
func TestFutureGenerationBuffered(t *testing.T) {
	w, a := switchWorld(t)
	a[0].Request()
	w.Settle()
	a[0].Release()  // proposes; two prepares in flight
	w.DeliverNext() // prepare -> member 1 (acks, freezes)
	w.DeliverNext() // prepare -> member 2 (acks, freezes)
	if !a[1].frozen || !a[2].frozen {
		t.Fatal("members not frozen after acks")
	}
	// Member 1 sees gen-1 traffic from member 2 before its own commit.
	a[1].Deliver(2, Inner{Gen: 1, M: suzukikasami.Request{Seq: 1}})
	if len(a[1].future) != 1 {
		t.Fatalf("future buffer has %d entries, want 1", len(a[1].future))
	}
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
	if len(a[1].future) != 0 {
		t.Fatal("future buffer not replayed at commit")
	}
	if a[1].Generation() != 1 || a[1].Algorithm() != "suzuki" {
		t.Fatalf("member 1 gen %d alg %s", a[1].Generation(), a[1].Algorithm())
	}
}

func TestSwitchesAccessor(t *testing.T) {
	w, a := switchWorld(t)
	if a[0].Switches() != 0 {
		t.Fatal("fresh instance reports switches")
	}
	a[0].Request()
	w.Settle()
	a[0].Release()
	if err := w.Drain(100); err != nil {
		t.Fatal(err)
	}
	for i, inst := range a {
		if inst.Switches() != 1 {
			t.Fatalf("member %d Switches = %d, want 1", i, inst.Switches())
		}
	}
}

func TestAdaptiveProtocolPanics(t *testing.T) {
	t.Run("double request", func(t *testing.T) {
		_, a := switchWorld(t)
		a[1].Request()
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		a[1].Request()
	})
	t.Run("unknown message", func(t *testing.T) {
		_, a := switchWorld(t)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		a[1].Deliver(0, badMsg{})
	})
	t.Run("policy recommends unknown algorithm", func(t *testing.T) {
		w := algotest.NewWorld()
		factory, err := NewFactory(Config{Initial: "naimi", NewPolicy: func() Policy {
			return policyFunc{rec: func(string) string { return "bogus" }}
		}})
		if err != nil {
			t.Fatal(err)
		}
		insts, err := w.Build(factory, []mutex.ID{0, 1}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		a0 := insts[0].(*Instance)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		// The proposal opportunity right after the immediate grant
		// already consults the policy.
		a0.Request()
		w.Settle()
		a0.Release()
		w.Settle()
	})
}

// TestSingleMemberNeverProposes: proposals need at least two members.
func TestSingleMemberNeverProposes(t *testing.T) {
	w := algotest.NewWorld()
	factory, err := NewFactory(Config{Initial: "naimi", NewPolicy: func() Policy {
		return policyFunc{rec: func(string) string { return "suzuki" }}
	}})
	if err != nil {
		t.Fatal(err)
	}
	insts, err := w.Build(factory, []mutex.ID{0}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a0 := insts[0].(*Instance)
	a0.Request()
	w.Settle()
	a0.Release()
	w.Settle()
	if len(w.Log()) != 0 {
		t.Fatalf("single member sent %d messages", len(w.Log()))
	}
	if a0.Generation() != 0 {
		t.Fatal("single member switched")
	}
}

type badMsg struct{}

func (badMsg) Kind() string { return "bad" }
func (badMsg) Size() int    { return 0 }

// TestAdaptiveInsideMultiLevel places the adaptive wrapper at the middle
// level of a three-level hierarchy: regions switch their algorithm while
// cluster and top levels stay static.
func TestAdaptiveInsideMultiLevel(t *testing.T) {
	grid := topology.Uniform(4, 3, time.Millisecond, 12*time.Millisecond)
	sim := des.New()
	net := simnet.New(sim, grid, simnet.Options{})
	mon := check.NewMonitor(sim)
	runner, err := workload.NewRunner(sim, workload.Params{
		Alpha: 3 * time.Millisecond, Rho: 30, Dist: workload.Exponential,
		CSPerProcess: 15, Seed: 17,
	}, mon)
	if err != nil {
		t.Fatal(err)
	}
	naimiF, err := algorithms.Factory("naimi")
	if err != nil {
		t.Fatal(err)
	}
	adaptF, err := NewFactory(Config{
		Initial:   "naimi",
		NewPolicy: func() Policy { return &scriptedPolicy{targets: []string{"martin"}} },
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildMultiLevelWith(net, grid,
		[]mutex.Factory{naimiF, adaptF, naimiF}, []int{2}, runner.Callbacks)
	if err != nil {
		t.Fatal(err)
	}
	runner.Bind(d.Apps)
	runner.Start()
	if err := sim.RunCapped(8_000_000); err != nil {
		t.Fatalf("did not drain: %v", err)
	}
	mon.AssertQuiescent()
	if !mon.Ok() {
		t.Fatalf("violations: %v", mon.Violations()[0])
	}
	if !runner.Done() {
		t.Fatalf("liveness: %d outstanding", runner.Outstanding())
	}
	// At least one region committed a switch to martin.
	switched := false
	for _, c := range d.Coordinators {
		proc := d.Procs[c.ID()]
		if w, ok := proc.Instance(1).(*Instance); ok && w.Generation() > 0 {
			if w.Algorithm() != "martin" {
				t.Fatalf("region switched to %s, want martin", w.Algorithm())
			}
			switched = true
		}
	}
	if !switched {
		t.Log("no region switch committed this run (allowed but unexpected)")
	}
}
