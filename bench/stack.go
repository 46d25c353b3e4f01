package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gridmutex/internal/check"
	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/faults"
	"gridmutex/internal/harness"
	"gridmutex/internal/mutex"
	"gridmutex/internal/recovery"
	"gridmutex/internal/simnet"
	"gridmutex/internal/stats"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

// The harness builds every simulation inside its Run* entry points. To time
// the build on its own (setup_s, bytes_per_proc) and to put a timing shim
// between core and simnet (the traced pass), the benchmark assembles the
// same stacks here from the packages' exported constructors. The traced pass
// checks each assembly against the harness: same seed, same event and grant
// counts.

// simStack is one assembled simulation, ready to drive.
type simStack struct {
	sim    *des.Simulator
	net    *simnet.Network
	mon    *check.Monitor
	runner *workload.Runner
	alpha  time.Duration
	procs  int    // processes built, coordinators included
	stop   func() // recovery: stops the detectors once the workload is done
}

// wrapFabric lets the traced pass interpose on the fabric; nil leaves it bare.
type wrapFabric func(mutex.Fabric) mutex.Fabric

func wrapped(net *simnet.Network, wrap wrapFabric) mutex.Fabric {
	if wrap == nil {
		return net
	}
	return wrap(net)
}

// splitmix64 and runSeed restate the harness's per-run seed derivation, so a
// bench-assembled run replays exactly the run the harness makes for the same
// (base seed, rho, repetition).
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func runSeed(base int64, rho float64, rep int) int64 {
	z := splitmix64(uint64(base) + 0x9e3779b97f4a7c15)
	z = splitmix64(z ^ math.Float64bits(rho))
	z = splitmix64(z ^ uint64(rep))
	return int64(z)
}

// scaleGrid is the topology of one figure run: composed systems reserve one
// coordinator node per cluster, extra more on top (the recovery standby).
func scaleGrid(sys harness.System, scale harness.Scale, extra int) *topology.Grid {
	per := scale.AppsPerCluster + extra
	if sys.Flat == "" {
		per++
	}
	if scale.UseGrid5000 {
		return topology.Grid5000(per)
	}
	return topology.Uniform(scale.Clusters, per, scale.LocalRTT, scale.RemoteRTT)
}

// buildFigureStack assembles one (system, rho, seed) run of a figure sweep.
func buildFigureStack(sys harness.System, scale harness.Scale, rho float64, seed int64, wrap wrapFabric) (*simStack, error) {
	g := scaleGrid(sys, scale, 0)
	sim := des.New()
	net := simnet.New(sim, g, simnet.Options{Jitter: scale.Jitter, Seed: seed})
	mon := check.NewMonitor(sim)
	runner, err := workload.NewRunner(sim, workload.Params{
		Alpha: scale.Alpha, Rho: rho, Dist: workload.Exponential,
		CSPerProcess: scale.CSPerProcess, Seed: seed,
	}, mon)
	if err != nil {
		return nil, err
	}
	var d *core.Deployment
	if sys.Flat != "" {
		d, err = core.BuildFlat(wrapped(net, wrap), g, sys.Flat, runner.Callbacks)
	} else {
		d, err = core.BuildComposed(wrapped(net, wrap), g, sys.Spec, runner.Callbacks)
	}
	if err != nil {
		return nil, err
	}
	runner.Bind(d.Apps)
	return &simStack{sim: sim, net: net, mon: mon, runner: runner, alpha: scale.Alpha, procs: len(d.Procs)}, nil
}

// treeRecipe restates the grid-scale sweep's tree for n nodes: leaf clusters
// of 10, fan-outs of 10 from the root down, root crossings at 32 ms halving
// per level to a 2 ms floor, one naimi level per tree level plus the leaf.
func treeRecipe(n int) (spec topology.TreeSpec, groups []int, algs []string) {
	const leaf = 10
	var fanouts []int
	for rest := n / leaf; rest > 1; {
		switch {
		case rest%10 == 0 && rest > 10:
			fanouts = append(fanouts, 10)
			rest /= 10
		case rest == 10 && len(fanouts) == 0:
			fanouts = append(fanouts, 2, 5)
			rest = 1
		default:
			fanouts = append(fanouts, rest)
			rest = 1
		}
	}
	spec = topology.TreeSpec{Fanouts: fanouts, LeafSize: leaf, LeafRTT: time.Millisecond}
	rtt := 32 * time.Millisecond
	for range fanouts {
		spec.LevelRTT = append(spec.LevelRTT, rtt)
		if rtt > 2*time.Millisecond {
			rtt /= 2
		}
	}
	for i := len(fanouts) - 1; i >= 1; i-- {
		groups = append(groups, fanouts[i])
	}
	for i := 0; i < len(groups)+2; i++ {
		algs = append(algs, "naimi")
	}
	return spec, groups, algs
}

// buildTreeStack assembles the grid-scale run for n nodes.
func buildTreeStack(n, csPerProcess int, alpha time.Duration, seed int64, wrap wrapFabric) (*simStack, error) {
	spec, groups, algs := treeRecipe(n)
	g, err := topology.NewTree(spec)
	if err != nil {
		return nil, err
	}
	apps := g.NumClusters() * (spec.LeafSize - 1)
	sim := des.New()
	net := simnet.New(sim, g, simnet.Options{Jitter: 0.05, Seed: seed})
	mon := check.NewMonitor(sim)
	runner, err := workload.NewRunner(sim, workload.Params{
		Alpha: alpha, Rho: float64(apps), Dist: workload.Exponential,
		CSPerProcess: csPerProcess, Seed: seed,
	}, mon)
	if err != nil {
		return nil, err
	}
	d, err := core.BuildMultiLevel(wrapped(net, wrap), g, algs, groups, runner.Callbacks)
	if err != nil {
		return nil, err
	}
	runner.Bind(d.Apps)
	return &simStack{sim: sim, net: net, mon: mon, runner: runner, alpha: alpha, procs: len(d.Procs)}, nil
}

// buildRecoveryStack assembles one crash-recovery run: a naimi-naimi
// composition with a standby per cluster, heartbeat detectors of the given
// period, and one application crashed the instant it enters a seeded CS.
func buildRecoveryStack(scale harness.Scale, period time.Duration, rho float64, seed int64, wrap wrapFabric) (*simStack, error) {
	spec := core.Spec{Intra: "naimi", Inter: "naimi"}
	g := scaleGrid(harness.System{Spec: spec}, scale, 1)
	sim := des.New()
	net := simnet.New(sim, g, simnet.Options{Jitter: scale.Jitter, Seed: seed, KindCounts: true})
	mon := check.NewMonitor(sim)
	runner, err := workload.NewRunner(sim, workload.Params{
		Alpha: scale.Alpha, Rho: rho, Dist: workload.Exponential,
		CSPerProcess: scale.CSPerProcess, Seed: seed,
	}, mon)
	if err != nil {
		return nil, err
	}
	var appNodes []int
	for c := 0; c < g.NumClusters(); c++ {
		appNodes = append(appNodes, g.NodesIn(c)[2:]...)
	}
	trig := faults.OnCSEntry(seed, appNodes, scale.CSPerProcess)
	entries := 0
	appCB := func(id mutex.ID) mutex.Callbacks {
		inner := runner.Callbacks(id)
		if int(id) != trig.Victim {
			return inner
		}
		return mutex.Callbacks{OnAcquire: func() {
			inner.OnAcquire()
			entries++
			if entries == trig.Entry {
				net.Crash(trig.Victim)
				runner.Crash(id)
				mon.Crashed(id)
			}
		}}
	}
	intra, inter := recovery.StaggeredTimeouts(period, scale.RemoteRTT/2)
	dep, err := recovery.Build(wrapped(net, wrap), g, spec, appCB, sim, recovery.BuildOptions{
		Intra:    intra,
		Inter:    inter,
		NodeDown: net.Down,
		OnEpoch: func(group string, self mutex.ID, e recovery.Epoch, members []mutex.ID, holder mutex.ID) {
			mon.BeginEpoch(group)
		},
	})
	if err != nil {
		return nil, err
	}
	runner.Bind(dep.Apps)
	return &simStack{sim: sim, net: net, mon: mon, runner: runner, alpha: scale.Alpha, procs: len(dep.Procs), stop: dep.Stop}, nil
}

// drive runs the assembled simulation to completion and checks safety and
// liveness, the way the harness drives the same stack.
func (s *simStack) drive() error {
	s.runner.Start()
	limit := uint64(s.runner.ExpectedTotal())*10_000 + 1_000_000
	if s.stop == nil {
		s.mon.WatchLiveness(s.runner.Waiting, s.runner.Done, 2000*s.alpha)
	} else {
		// Heartbeats keep the queue non-empty: step until the survivors are
		// done, then stop the detectors and drain.
		for !s.runner.Done() {
			if s.sim.Processed() > limit {
				return fmt.Errorf("liveness: %d requests unsatisfied after %d events", s.runner.Outstanding(), s.sim.Processed())
			}
			if !s.sim.Step() {
				return fmt.Errorf("queue drained with %d requests unsatisfied", s.runner.Outstanding())
			}
		}
		s.stop()
	}
	if err := s.sim.RunCapped(limit); err != nil {
		return fmt.Errorf("did not drain: %w", err)
	}
	s.mon.AssertQuiescent()
	if !s.mon.Ok() {
		return fmt.Errorf("property violation: %s", s.mon.Violations()[0])
	}
	if !s.runner.Done() {
		return fmt.Errorf("liveness: %d requests unsatisfied", s.runner.Outstanding())
	}
	return nil
}

// digest folds the run's records the way the harness does per repetition:
// one sketch-backed accumulator for the obtaining time, compact ones per
// process and per cluster, then the summary.
func (s *simStack) digest() stats.Summary {
	obtain := stats.Accumulator{Sketch: true}
	var perProc, perCluster []stats.Accumulator
	for _, r := range s.runner.Records() {
		ms := float64(r.Obtaining()) / float64(time.Millisecond)
		obtain.Push(ms)
		for int(r.ID) >= len(perProc) {
			perProc = append(perProc, stats.Accumulator{})
		}
		perProc[r.ID].Push(ms)
		for r.Cluster >= len(perCluster) {
			perCluster = append(perCluster, stats.Accumulator{})
		}
		perCluster[r.Cluster].Push(ms)
	}
	return obtain.Summarize()
}

// heapLive is the settled live heap after two forced collections: the second
// frees what the first one's finalizers and emptied pools let go of.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setUp takes a simulated workload's set-up samples: each builds the n
// stacks of one sweep slice, one alive at a time as in the harness, and sums
// the build times. The heap is collected before every build, outside the
// timing: builds are allocation-heavy, and without it their time would depend
// on how far the heap happened to have grown and set-up garbage would set the
// run's resident-set high-water mark. A last pass, untimed, settles the heap
// around every build for the bytes a stack adds per process built.
func setUp(out *outcome, n int, build func(i int) (*simStack, error)) error {
	for rep := 0; rep < setupReps; rep++ {
		var took time.Duration
		for i := 0; i < n; i++ {
			runtime.GC()
			start := time.Now()
			if _, err := build(i); err != nil {
				return err
			}
			took += time.Since(start)
		}
		out.setups = append(out.setups, took.Seconds())
	}
	var bytes uint64
	procs := 0
	for i := 0; i < n; i++ {
		before := heapLive()
		s, err := build(i)
		if err != nil {
			return err
		}
		if after := heapLive(); after > before {
			bytes += after - before
		}
		procs += s.procs
		runtime.KeepAlive(s)
	}
	out.bytes = append(out.bytes, float64(bytes)/float64(procs))
	return nil
}
