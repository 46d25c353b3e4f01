package core_test

import (
	"testing"
	"time"

	"gridmutex/internal/check"
	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/reliable"
	"gridmutex/internal/simnet"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

// runMultiLevel builds and drains a hierarchy, asserting safety and
// liveness.
func runMultiLevel(t *testing.T, grid *topology.Grid, algs []string, groups []int, params workload.Params) (*workload.Runner, *core.Deployment) {
	t.Helper()
	sim := des.New()
	net := simnet.New(sim, grid, simnet.Options{})
	mon := check.NewMonitor(sim)
	runner, err := workload.NewRunner(sim, params, mon)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildMultiLevel(net, grid, algs, groups, runner.Callbacks)
	if err != nil {
		t.Fatal(err)
	}
	runner.Bind(d.Apps)
	runner.Start()
	if err := sim.RunCapped(5_000_000); err != nil {
		t.Fatalf("hierarchy did not drain: %v (outstanding %d)", err, runner.Outstanding())
	}
	mon.AssertQuiescent()
	if !mon.Ok() {
		t.Fatalf("violations: %v", mon.Violations()[0])
	}
	if !runner.Done() {
		t.Fatalf("liveness: %d outstanding", runner.Outstanding())
	}
	return runner, d
}

// TestThreeLevelHierarchy: 6 clusters grouped 2 regions of 3; naimi inside
// clusters, martin within regions, suzuki across regions.
func TestThreeLevelHierarchy(t *testing.T) {
	grid := topology.Uniform(6, 4, time.Millisecond, 20*time.Millisecond)
	params := workload.Params{
		Alpha: 4 * time.Millisecond, Rho: 15, Dist: workload.Exponential,
		CSPerProcess: 6, Seed: 31,
	}
	runner, d := runMultiLevel(t, grid, []string{"naimi", "martin", "suzuki"}, []int{3}, params)
	// 6 cluster coordinators + 2 region coordinators.
	if len(d.Coordinators) != 8 {
		t.Fatalf("%d coordinators, want 8", len(d.Coordinators))
	}
	if len(d.Apps) != 18 {
		t.Fatalf("%d apps, want 18", len(d.Apps))
	}
	if len(runner.Records()) != runner.ExpectedTotal() {
		t.Fatalf("%d records", len(runner.Records()))
	}
}

// TestFourLevelHierarchy: 8 clusters -> 4 pairs -> 2 super-groups -> top.
func TestFourLevelHierarchy(t *testing.T) {
	grid := topology.Uniform(8, 3, time.Millisecond, 16*time.Millisecond)
	params := workload.Params{
		Alpha: 3 * time.Millisecond, Rho: 25, Dist: workload.Exponential,
		CSPerProcess: 4, Seed: 33,
	}
	_, d := runMultiLevel(t, grid, []string{"naimi", "naimi", "naimi", "naimi"}, []int{2, 2}, params)
	// 8 + 4 + 2 coordinators.
	if len(d.Coordinators) != 14 {
		t.Fatalf("%d coordinators, want 14", len(d.Coordinators))
	}
}

// TestFiveLevelHierarchy: 16 clusters -> 8 -> 4 -> 2 -> top, the depth of
// the grid-scale sweep at N = 10⁵. Every process hosts one or two levels,
// and the region coordinators, which host no level 0, still boot.
func TestFiveLevelHierarchy(t *testing.T) {
	grid := topology.Uniform(16, 3, time.Millisecond, 16*time.Millisecond)
	params := workload.Params{
		Alpha: 3 * time.Millisecond, Rho: 40, Dist: workload.Exponential,
		CSPerProcess: 3, Seed: 37,
	}
	_, d := runMultiLevel(t, grid, []string{"naimi", "naimi", "naimi", "naimi", "naimi"}, []int{2, 2, 2}, params)
	// 16 + 8 + 4 + 2 coordinators.
	if len(d.Coordinators) != 30 {
		t.Fatalf("%d coordinators, want 30", len(d.Coordinators))
	}
	for id, p := range d.Procs {
		hosted := 0
		for lvl := core.Level(0); lvl < 5; lvl++ {
			if p.Instance(lvl) != nil {
				hosted++
			}
		}
		if hosted < 1 || hosted > 2 {
			t.Errorf("process %d hosts %d levels, want 1 or 2", id, hosted)
		}
	}
}

// TestUnevenGroups: group size that does not divide the cluster count.
func TestUnevenGroups(t *testing.T) {
	grid := topology.Uniform(5, 3, time.Millisecond, 16*time.Millisecond)
	params := workload.Params{
		Alpha: 3 * time.Millisecond, Rho: 10, Dist: workload.Exponential,
		CSPerProcess: 4, Seed: 35,
	}
	_, d := runMultiLevel(t, grid, []string{"naimi", "suzuki", "naimi"}, []int{2}, params)
	// 5 cluster coordinators + 3 region coordinators (2+2+1).
	if len(d.Coordinators) != 8 {
		t.Fatalf("%d coordinators, want 8", len(d.Coordinators))
	}
}

// TestTwoLevelEquivalence: BuildComposed must behave exactly like the
// explicit two-level hierarchy (it delegates, but assert observable
// equality end to end).
func TestTwoLevelEquivalence(t *testing.T) {
	params := workload.Params{
		Alpha: 5 * time.Millisecond, Rho: 10, Dist: workload.Exponential,
		CSPerProcess: 6, Seed: 37,
	}
	run := func(multi bool) ([]workload.Record, int64) {
		grid := topology.Uniform(3, 4, time.Millisecond, 20*time.Millisecond)
		sim := des.New()
		net := simnet.New(sim, grid, simnet.Options{})
		runner, err := workload.NewRunner(sim, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		var d *core.Deployment
		if multi {
			d, err = core.BuildMultiLevel(net, grid, []string{"naimi", "martin"}, nil, runner.Callbacks)
		} else {
			d, err = core.BuildComposed(net, grid, core.Spec{"naimi", "martin"}, runner.Callbacks)
		}
		if err != nil {
			t.Fatal(err)
		}
		runner.Bind(d.Apps)
		runner.Start()
		if err := sim.RunCapped(2_000_000); err != nil {
			t.Fatal(err)
		}
		return runner.Records(), net.Counters().Messages
	}
	recA, msgsA := run(false)
	recB, msgsB := run(true)
	if msgsA != msgsB {
		t.Fatalf("message counts differ: %d vs %d", msgsA, msgsB)
	}
	if len(recA) != len(recB) {
		t.Fatal("record counts differ")
	}
	for i := range recA {
		if recA[i] != recB[i] {
			t.Fatalf("records diverge at %d", i)
		}
	}
}

// TestMultiLevelReducesTopLevelTraffic: adding a middle level cuts traffic
// at the top level compared to a two-level build with the same clusters —
// the scalability rationale for deeper hierarchies.
func TestMultiLevelReducesTopLevelTraffic(t *testing.T) {
	params := workload.Params{
		Alpha: 4 * time.Millisecond, Rho: 5, Dist: workload.Exponential,
		CSPerProcess: 8, Seed: 39,
	}
	// Measure inter-cluster messages (anything crossing cluster
	// boundaries) in both architectures on the same grid.
	run := func(algs []string, groups []int) float64 {
		grid := topology.Uniform(6, 4, time.Millisecond, 24*time.Millisecond)
		sim := des.New()
		net := simnet.New(sim, grid, simnet.Options{})
		runner, err := workload.NewRunner(sim, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.BuildMultiLevel(net, grid, algs, groups, runner.Callbacks)
		if err != nil {
			t.Fatal(err)
		}
		runner.Bind(d.Apps)
		runner.Start()
		if err := sim.RunCapped(5_000_000); err != nil {
			t.Fatal(err)
		}
		if !runner.Done() {
			t.Fatal("incomplete")
		}
		return float64(net.Counters().InterMessages) / float64(len(runner.Records()))
	}
	two := run([]string{"naimi", "suzuki"}, nil)
	three := run([]string{"naimi", "naimi", "suzuki"}, []int{3})
	if three >= two {
		t.Errorf("three-level inter traffic %.2f msgs/CS not below two-level %.2f", three, two)
	}
}

func TestMultiLevelValidation(t *testing.T) {
	grid := topology.Uniform(4, 3, time.Millisecond, 16*time.Millisecond)
	net := simnet.New(des.New(), grid, simnet.Options{})
	cases := []struct {
		name   string
		algs   []string
		groups []int
	}{
		{"too few levels", []string{"naimi"}, nil},
		{"mismatched groups", []string{"naimi", "naimi"}, []int{2}},
		{"missing groups", []string{"naimi", "naimi", "naimi"}, nil},
		{"unknown algorithm", []string{"naimi", "bogus", "naimi"}, []int{2}},
		{"zero group size", []string{"naimi", "naimi", "naimi"}, []int{0}},
	}
	for _, tc := range cases {
		if _, err := core.BuildMultiLevel(net, grid, tc.algs, tc.groups, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestIntermediateCoordinatorsAreColocated: region coordinators must sit on
// a physical node of their region (latency realism).
func TestIntermediateCoordinatorColocation(t *testing.T) {
	grid := topology.Uniform(4, 3, time.Millisecond, 16*time.Millisecond)
	sim := des.New()
	net := simnet.New(sim, grid, simnet.Options{})
	d, err := core.BuildMultiLevel(net, grid, []string{"naimi", "naimi", "naimi"}, []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// IDs beyond the topology are the region coordinators.
	extra := 0
	for id := range d.Procs {
		if int(id) >= grid.NumNodes() {
			extra++
		}
	}
	if extra != 2 {
		t.Fatalf("%d intermediate coordinators, want 2", extra)
	}
	sim.Run() // drain boot events; nothing should be in flight or panic
}

// TestKitchenSink enables everything at once — three levels, local bias,
// latency jitter, 10% loss under the reliable layer — and checks the full
// stack still upholds safety and liveness.
func TestKitchenSink(t *testing.T) {
	grid := topology.Uniform(4, 4, time.Millisecond, 14*time.Millisecond)
	sim := des.New()
	inner := simnet.New(sim, grid, simnet.Options{Jitter: 0.2, Seed: 21, Loss: 0.10})
	rel := reliable.Wrap(inner, sim, reliable.Options{RTO: 80 * time.Millisecond})
	mon := check.NewMonitor(sim)
	runner, err := workload.NewRunner(sim, workload.Params{
		Alpha: 4 * time.Millisecond, Rho: 10, Dist: workload.Exponential,
		CSPerProcess: 8, Seed: 21,
	}, mon)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildMultiLevel(rel, grid, []string{"suzuki", "naimi", "martin"}, []int{2},
		runner.Callbacks, func(c *core.Coordinator) { c.SetLocalBias(2) })
	if err != nil {
		t.Fatal(err)
	}
	runner.Bind(d.Apps)
	runner.Start()
	mon.WatchLiveness(runner.Waiting, runner.Done, 5*time.Second)
	if err := sim.RunCapped(30_000_000); err != nil {
		t.Fatalf("did not drain: %v (outstanding %d)", err, runner.Outstanding())
	}
	mon.AssertQuiescent()
	if !mon.Ok() {
		t.Fatalf("violations: %v", mon.Violations()[0])
	}
	if !runner.Done() {
		t.Fatalf("liveness: %d outstanding", runner.Outstanding())
	}
	if rel.Stats().Retransmits == 0 {
		t.Error("loss produced no retransmissions")
	}
}
