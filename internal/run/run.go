// Package run is the one place a simulation is assembled and driven.
// Build turns a plain Spec — topology, network model, workload, system
// under test, faults — into a wired stack (simulator, simnet, optional
// reliable layer, safety monitor, workload runner, deployment), deriving
// every network-dependent parameter from the Spec's grid, and Drive drains
// it and returns the raw material callers format: the harness into figure
// points and errors, the scenario engine into verdicts, gridsim into a
// trace dump. Holding everything except the Spec fixed across callers is
// what makes their results comparable.
package run

import (
	"fmt"
	"math"
	"time"

	"gridmutex/internal/adaptive"
	"gridmutex/internal/algorithms"
	"gridmutex/internal/check"
	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/faults"
	"gridmutex/internal/mutex"
	"gridmutex/internal/recovery"
	"gridmutex/internal/reliable"
	"gridmutex/internal/simnet"
	"gridmutex/internal/topology"
	"gridmutex/internal/trace"
	"gridmutex/internal/workload"
)

// Spec describes one simulation run.
type Spec struct {
	// Grid is the topology, reserved infrastructure nodes included.
	Grid *topology.Grid
	// Seed drives both the network's jitter/loss stream and the workload's
	// idle times (it overwrites Workload.Seed).
	Seed int64
	// Jitter and Loss configure the simulated network (see simnet.Options).
	Jitter, Loss float64
	// TraceCapacity, when positive, attaches a trace ring buffer of that
	// many events to the fabric.
	TraceCapacity int
	// Reliable, when non-nil, wraps the fabric in the sequencing/ack/
	// retransmission layer with these options. A zero RTO means three times
	// the grid's largest round trip: spurious retransmissions stay rare.
	Reliable *reliable.Options
	// Workload is the application behaviour.
	Workload workload.Params
	System   System
	Faults   Faults
	// Horizon, when positive, runs for that stretch of virtual time
	// instead of to completion (starved requests are expected), then
	// stops the detectors and drains.
	Horizon time.Duration
	// EventLimit caps the events without a grant: the drive gives up once
	// that many have run since the last stretch of that length that granted
	// anything. 0 derives the default from the workload size.
	EventLimit uint64
	// OnGrant, when non-nil, receives every grant the instant it happens,
	// in grant order (workload.Runner.OnGrant). The run keeps no grant
	// list: a caller folds what it needs as grants come, and
	// Outcome.Grants counts them.
	OnGrant func(workload.Record)
}

// Validate reports whether s describes a legal run. Build calls it first
// and the scenario loader calls it on the Spec its engine would run, so a
// flag, a file and a hand-built Spec are held to one statement of the
// rules. One rule needs the grid and is checked only when Grid is set: the
// jitter must not stretch the grid's largest one-way delay past the longest
// time.Duration, where simnet's delay would wrap negative.
func (s Spec) Validate() error {
	if err := s.System.Validate(); err != nil {
		return err
	}
	// NaN fails every comparison, so each range is stated as what holds.
	if !(s.Jitter >= 0) || math.IsInf(s.Jitter, 1) {
		return fmt.Errorf("run: jitter %v must be finite and non-negative", s.Jitter)
	}
	if g := s.Grid; g != nil && float64(g.MaxRTT()/2)*(1+s.Jitter) >= math.MaxInt64 {
		return fmt.Errorf("run: jitter %v stretches the grid's largest one-way delay, %v, past %v",
			s.Jitter, g.MaxRTT()/2, time.Duration(math.MaxInt64))
	}
	if !(s.Loss >= 0 && s.Loss < 1) {
		return fmt.Errorf("run: loss %v outside [0, 1)", s.Loss)
	}
	if s.Horizon < 0 {
		return fmt.Errorf("run: horizon %v must be non-negative", s.Horizon)
	}
	return s.Workload.Validate()
}

// System selects the deployment under test: exactly one of a k-level
// hierarchy (Levels), a flat original algorithm (Flat) or an Intra-Inter
// composition, the last optionally adaptive, locally biased or
// crash-tolerant (Heartbeat). Validate holds the combinations.
type System struct {
	// Flat names an original (non-hierarchical) algorithm.
	Flat string
	// Intra and Inter name the two-level composition; with AdaptiveInter,
	// Inter is only the initial inter algorithm.
	Intra, Inter string
	// Levels and Groups describe a k-level hierarchy, deepest level first
	// (core.BuildMultiLevel).
	Levels []string
	Groups []int
	// AdaptiveInter wraps the inter level in the adaptive switching
	// protocol driven by a GapPolicy.
	AdaptiveInter bool
	// LocalBias is the number of extra local serving rounds before each
	// inter handoff.
	LocalBias int
	// Heartbeat, when positive, builds the crash-tolerant deployment (a
	// primary and a standby node per cluster) with failure detectors of
	// that period; their timeouts come from the grid (DetectorTimeouts).
	Heartbeat time.Duration
}

// Validate reports whether s is one legal shape.
func (s System) Validate() error {
	shape, names := "", []string{s.Intra, s.Inter}
	switch {
	case len(s.Levels) > 0:
		shape, names = "levels", s.Levels
	case s.Flat != "":
		shape, names = "flat", []string{s.Flat}
	}
	switch {
	case shape != "" && (s.Intra != "" || s.Inter != "" || shape == "levels" && s.Flat != ""):
		return fmt.Errorf("run: %s excludes the other shapes (intra/inter, flat, levels)", shape)
	case shape != "" && (s.AdaptiveInter || s.Heartbeat != 0):
		return fmt.Errorf("run: %s excludes adaptive and recovery (heartbeat)", shape)
	case shape == "" && (s.Intra == "" || s.Inter == ""):
		return fmt.Errorf("run: system needs intra and inter (or flat, or levels)")
	case shape == "levels" && len(s.Levels) < 2:
		return fmt.Errorf("run: a hierarchy needs at least 2 levels, got %d", len(s.Levels))
	case shape == "levels" && len(s.Levels) != len(s.Groups)+2:
		return fmt.Errorf("run: %d levels need %d group sizes, got %d", len(s.Levels), len(s.Levels)-2, len(s.Groups))
	case shape != "levels" && len(s.Groups) > 0:
		return fmt.Errorf("run: groups need a levels list")
	case s.AdaptiveInter && s.Heartbeat != 0:
		return fmt.Errorf("run: adaptive and recovery (heartbeat) cannot combine: the recovery layer wraps static members")
	case s.LocalBias < 0:
		return fmt.Errorf("run: local bias %d must be non-negative", s.LocalBias)
	case s.LocalBias > 0 && shape == "flat":
		return fmt.Errorf("run: local bias needs a composition: flat has no coordinators")
	case s.LocalBias > 0 && s.Heartbeat != 0:
		return fmt.Errorf("run: local bias is not supported under recovery (heartbeat)")
	case s.Heartbeat < 0:
		return fmt.Errorf("run: heartbeat %v must be non-negative", s.Heartbeat)
	}
	for _, name := range names {
		if _, err := algorithms.Factory(name); err != nil {
			return fmt.Errorf("run: %v", err)
		}
	}
	return nil
}

// recovery reports whether s is the crash-tolerant deployment.
func (s System) recovery() bool { return s.Heartbeat > 0 }

// Reserved returns how many infrastructure nodes the system occupies at
// the front of every cluster, on top of the applications: none when flat,
// the coordinator of a composition, plus the standby of a crash-tolerant one.
func (s System) Reserved() int {
	switch {
	case s.recovery():
		return 2
	case s.Flat != "":
		return 0
	default:
		return 1
	}
}

// AppNodes lists g's application nodes: every cluster's, in cluster order,
// past the system's reserved ones.
func (s System) AppNodes(g *topology.Grid) []int {
	var out []int
	for c, skip := 0, s.Reserved(); c < g.NumClusters(); c++ {
		out = append(out, g.NodesIn(c)[skip:]...)
	}
	return out
}

// DetectorTimeouts returns the failure-detector options Build gives a
// crash-tolerant deployment on g: the worst one-way delay is half the
// grid's largest round trip.
func DetectorTimeouts(g *topology.Grid, heartbeat time.Duration) (intra, inter recovery.Options) {
	return recovery.StaggeredTimeouts(heartbeat, g.MaxRTT()/2)
}

// Faults is what goes wrong during the run.
type Faults struct {
	// Schedule lists timed crashes, restarts and partition cuts.
	Schedule faults.Schedule
	// HolderKills crash a node the instant a victim enters a given
	// critical section.
	HolderKills []HolderKill
}

// HolderKill crashes Victim when it enters its Entry-th critical section
// or, with Coordinator set, crashes the primary of Victim's cluster at
// that instant instead.
type HolderKill struct {
	Victim, Entry int
	Coordinator   bool
}

// Run is a built simulation, ready to Drive. Between Build and Drive
// callers may attach observers to the deployment or sample the heap.
type Run struct {
	// Core is the run's deployment. Recovery is set for recovery systems
	// only, and then Core is its embedded core.Deployment.
	Core     *core.Deployment
	Recovery *recovery.Deployment
	// Tracer is nil unless Spec.TraceCapacity is positive.
	Tracer *trace.Tracer

	spec    Spec
	sim     *des.Simulator
	net     *simnet.Network
	rel     *reliable.Network
	mon     *check.Monitor
	runner  *workload.Runner
	crashed map[int]bool
}

// Build assembles the run. Errors are configuration problems: whatever
// Spec.Validate rejects, or a system that does not fit the grid.
func Build(spec Spec) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := spec.Grid
	sim := des.New()
	r := &Run{spec: spec, sim: sim, crashed: make(map[int]bool)}
	if spec.TraceCapacity > 0 {
		r.Tracer = trace.New(sim.Now, spec.TraceCapacity)
	}
	sys := spec.System
	r.net = simnet.New(sim, g, simnet.Options{
		Jitter: spec.Jitter, Seed: spec.Seed, Loss: spec.Loss, Trace: r.Tracer,
		// Detector overhead is a reported axis of every recovery run.
		KindCounts: sys.recovery(),
	})
	var fabric mutex.Fabric = r.net
	if spec.Reliable != nil {
		opts := *spec.Reliable
		if opts.RTO <= 0 {
			opts.RTO = 3 * g.MaxRTT()
		}
		r.rel = reliable.Wrap(r.net, sim, opts)
		fabric = r.rel
	}
	r.mon = check.NewMonitor(sim)
	w := spec.Workload
	w.Seed = spec.Seed
	var err error
	if r.runner, err = workload.NewRunner(sim, w, r.mon); err != nil {
		return nil, err
	}
	sink := spec.OnGrant
	if sink == nil {
		sink = func(workload.Record) {}
	}
	r.runner.OnGrant(sink)

	appCB := r.wireHolderKills()
	// Scheduled faults enter the event queue before the deployment's own
	// timers: same-instant ties resolve in scheduling order.
	if len(spec.Faults.Schedule) > 0 {
		spec.Faults.Schedule.Apply(sim, faults.Actions{
			Crash: r.crash, Restart: r.restart,
			Partition: r.net.Partition, Heal: r.net.Heal,
		})
	}

	var coordOpts []func(*core.Coordinator)
	if k := sys.LocalBias; k > 0 {
		coordOpts = append(coordOpts, func(c *core.Coordinator) { c.SetLocalBias(k) })
	}
	pair := core.Spec{Intra: sys.Intra, Inter: sys.Inter}
	switch {
	case len(sys.Levels) > 0:
		r.Core, err = core.BuildMultiLevel(fabric, g, sys.Levels, sys.Groups, appCB, coordOpts...)
	case sys.Flat != "":
		r.Core, err = core.BuildFlat(fabric, g, sys.Flat, appCB)
	case sys.recovery():
		intra, inter := DetectorTimeouts(g, sys.Heartbeat)
		r.Recovery, err = recovery.Build(fabric, g, pair, appCB, sim, recovery.BuildOptions{
			Intra: intra, Inter: inter,
			NodeDown: r.net.Down,
			OnEpoch: func(group string, _ mutex.ID, _ recovery.Epoch, _ []mutex.ID, _ mutex.ID) {
				r.mon.BeginEpoch(group)
			},
			// Revive ignores processes that never crashed, so one hook
			// serves crash-only, partition and restart runs alike.
			OnRejoin: func(_ string, self mutex.ID, _ recovery.Epoch) {
				r.mon.Rejoined(self)
				r.runner.Revive(self)
			},
		})
	case sys.AdaptiveInter:
		r.Core, err = r.buildAdaptive(fabric, appCB, coordOpts)
	default:
		r.Core, err = core.BuildComposed(fabric, g, pair, appCB, coordOpts...)
	}
	if err != nil {
		return nil, err
	}
	if r.Recovery != nil {
		r.Core = &r.Recovery.Deployment
	}
	r.runner.Bind(r.Core.Apps)
	return r, nil
}

func (r *Run) buildAdaptive(fabric mutex.Fabric, appCB core.CallbackFunc, coordOpts []func(*core.Coordinator)) (*core.Deployment, error) {
	intraF, err := algorithms.Factory(r.spec.System.Intra)
	if err != nil {
		return nil, err
	}
	adaptF, err := adaptive.NewFactory(adaptive.Config{
		Initial: r.spec.System.Inter,
		NewPolicy: func() adaptive.Policy {
			return adaptive.NewGapPolicy(r.sim.Now, r.spec.Workload.Alpha)
		},
	})
	if err != nil {
		return nil, err
	}
	return core.BuildMultiLevelWith(fabric, r.spec.Grid, []mutex.Factory{intraF, adaptF}, nil, appCB, coordOpts...)
}

func (r *Run) crash(node int) {
	r.crashed[node] = true
	r.net.Crash(node)
	r.runner.Crash(mutex.ID(node))
	r.mon.Crashed(mutex.ID(node))
}

// restart restores connectivity and opens the rejoin-latency sample; the
// workload process stays dead until the recovery layer re-admits it (the
// OnRejoin hook revives it). The node leaves the crashed set: from here on
// its completion and frozen state count as evidence again.
func (r *Run) restart(node int) {
	delete(r.crashed, node)
	r.net.Restart(node)
	r.mon.Restarted(mutex.ID(node))
}

// wireHolderKills wraps the runner's callbacks so each holder kill fires
// the instant its victim enters the given critical section.
func (r *Run) wireHolderKills() core.CallbackFunc {
	kills := r.spec.Faults.HolderKills
	if len(kills) == 0 {
		return r.runner.Callbacks
	}
	g := r.spec.Grid
	fired := make([]bool, len(kills))
	return func(id mutex.ID) mutex.Callbacks {
		inner := r.runner.Callbacks(id)
		var mine []int
		for i, k := range kills {
			if k.Victim == int(id) {
				mine = append(mine, i)
			}
		}
		if len(mine) == 0 {
			return inner
		}
		entries := 0
		return mutex.Callbacks{OnAcquire: func() {
			inner.OnAcquire()
			entries++
			for _, i := range mine {
				k := kills[i]
				if fired[i] || entries != k.Entry {
					continue
				}
				fired[i] = true
				if k.Coordinator {
					r.crash(g.NodesIn(g.ClusterOf(k.Victim))[0])
				} else {
					r.crash(k.Victim)
				}
			}
		}}
	}
}

// StallKind classifies how a drive failed to complete.
type StallKind uint8

const (
	// NoDrain: the drain went a full event limit without a grant and the
	// queue still held events; Stall.Err holds the des error.
	NoDrain StallKind = iota + 1
	// Unsatisfied: the queue drained with requests still outstanding.
	Unsatisfied
)

// Stall is a liveness failure of the drive; its Error is the one wording
// every caller reports.
type Stall struct {
	Kind StallKind
	Err  error
	// Outstanding is the number of critical sections still owed.
	Outstanding int
	// Horizon and Detectors say what the run was: one bounded by
	// Spec.Horizon, one of a deployment with failure detectors.
	Horizon, Detectors bool
}

func (s *Stall) Error() string {
	switch {
	case s.Horizon:
		return fmt.Sprintf("liveness: did not drain after horizon: %v", s.Err)
	case s.Kind == NoDrain && s.Detectors:
		return fmt.Sprintf("liveness: did not drain: %v", s.Err)
	case s.Kind == NoDrain:
		return fmt.Sprintf("liveness: did not drain: %v (outstanding %d)", s.Err, s.Outstanding)
	case s.Detectors:
		return fmt.Sprintf("liveness: queue drained with %d requests unsatisfied", s.Outstanding)
	default:
		return fmt.Sprintf("liveness: %d requests unsatisfied", s.Outstanding)
	}
}

// Outcome is the raw material of a finished run.
type Outcome struct {
	// Grants counts the grants the run made (Spec.OnGrant saw each).
	Grants   int
	Counters simnet.Counters
	// Events is the number of DES events processed; Elapsed the virtual
	// time the run ended at.
	Events  uint64
	Elapsed time.Duration
	// Queue is the event queue's exact work: pushes, scatter moves,
	// buckets scattered and the pending high-water mark (des.QueueStats).
	Queue des.QueueStats
	// Trace is the rendered trace ring (empty without TraceCapacity).
	Trace   string
	Monitor *check.Monitor
	// Core is the run's deployment; Recovery and Reliable are its
	// crash-tolerant deployment and reliable layer, nil when the Spec did
	// not ask for them.
	Core     *core.Deployment
	Recovery *recovery.Deployment
	Reliable *reliable.Network
	// Crashed is the set of nodes down at the end of the run.
	Crashed map[int]bool
	// Switches counts committed adaptive algorithm switches.
	Switches int64
	// Stall is nil when the drive completed.
	Stall *Stall
}

// Drive starts the workload and drains the simulation (see drive). It does
// not judge the monitor: callers decide whether to assert quiescence and
// how to report violations.
func (r *Run) Drive() Outcome {
	r.runner.Start()
	stall := r.drive()
	out := Outcome{
		Grants:   r.runner.Grants(),
		Counters: r.net.Counters(),
		Events:   r.sim.Processed(),
		Elapsed:  r.sim.Now(),
		Queue:    r.sim.QueueStats(),
		Trace:    r.Tracer.Dump(),
		Monitor:  r.mon,
		Core:     r.Core,
		Recovery: r.Recovery,
		Reliable: r.rel,
		Crashed:  r.crashed,
		Stall:    stall,
	}
	if r.spec.System.AdaptiveInter && len(r.Core.Coordinators) > 0 {
		proc := r.Core.Procs[r.Core.Coordinators[0].ID()]
		if inst, ok := proc.Instance(1).(*adaptive.Instance); ok {
			out.Switches = inst.Generation()
		}
	}
	return out
}

// drive is one capped drain, preceded by the only thing the Spec chooses:
// when the failure detectors stop, since their heartbeats keep the event
// queue non-empty forever — at the horizon or, run to completion, the
// instant the last unfinished process finishes or crashes. A deployment
// without detectors, run to completion, arms the liveness watchdog instead.
// It reports a precise stall instant long before the cap would: a waiting
// request is granted within fractions of the interval under any load, so a
// full interval of global silence while requests wait is a deadlock.
func (r *Run) drive() *Stall {
	sim, runner, dep := r.sim, r.runner, r.Recovery
	switch {
	case r.spec.Horizon > 0:
		sim.RunFor(r.spec.Horizon)
		if dep != nil {
			dep.Stop()
		}
	case dep != nil:
		runner.OnDone(dep.Stop)
	default:
		// 2,000 α, or 50 of the grid's slowest jittered round trips when
		// that is longer, saturating as the clock does: on a slow grid one
		// grant can take longer than any multiple of α.
		window := max(2000*float64(r.spec.Workload.Alpha), 50*float64(r.spec.Grid.MaxRTT())*(1+r.spec.Jitter))
		interval := time.Duration(math.MaxInt64)
		if window < float64(interval) {
			interval = time.Duration(window)
		}
		r.mon.WatchLiveness(runner.Waiting, runner.Done, interval)
	}
	limit := r.spec.EventLimit
	if limit == 0 {
		limit = uint64(runner.ExpectedTotal())*10_000 + 1_000_000
	}
	// The cap counts events since the last window that granted anything,
	// not since the start: detector heartbeats alone would exhaust a
	// whole-run budget on a long sparse run that is making steady progress.
	// Progress is the grant counter.
	for {
		grants := runner.Grants()
		err := sim.RunCapped(limit)
		switch {
		case err == nil && r.spec.Horizon == 0 && !runner.Done():
			return r.stalled(Unsatisfied, nil)
		case err == nil:
			return nil
		case runner.Grants() == grants:
			return r.stalled(NoDrain, err)
		}
	}
}

func (r *Run) stalled(kind StallKind, err error) *Stall {
	return &Stall{
		Kind: kind, Err: err, Outstanding: r.runner.Outstanding(),
		Horizon: r.spec.Horizon > 0, Detectors: r.Recovery != nil,
	}
}
