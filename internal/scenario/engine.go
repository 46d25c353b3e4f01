package scenario

import (
	"fmt"
	"sort"
	"time"

	"gridmutex/internal/des"
	"gridmutex/internal/faults"
	"gridmutex/internal/mutex"
	"gridmutex/internal/rng"
	"gridmutex/internal/run"
	"gridmutex/internal/stats"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

// Options tune a run beyond what the scenario file declares.
type Options struct {
	// TraceCapacity, when positive, attaches an event trace ring buffer
	// of that many events to the run's fabric; the dump lands in
	// Result.Trace. The determinism regression compares these dumps.
	TraceCapacity int
}

// Result is one executed scenario: the verdict plus the optional trace.
type Result struct {
	Verdict Verdict
	Trace   string
}

// runOutcome carries everything the checker library and the metric
// registry read after a run: the kernel's raw outcome and the scenario it
// answers to.
type runOutcome struct {
	run.Outcome
	sc *Scenario

	// obtain holds every grant's obtaining time in ms and granted every
	// app's grant count, folded as grants come (grant is the run's sink).
	obtain  stats.Accumulator
	granted map[mutex.ID]int
}

// grant folds one grant into the outcome.
func (o *runOutcome) grant(r workload.Record) {
	o.obtain.Push(float64(r.Obtaining()) / float64(time.Millisecond))
	o.granted[r.ID]++
}

// Run compiles the scenario onto the run kernel, executes it
// deterministically and judges the outcome. A drive failure (stall, event
// cap, premature drain) becomes a failing liveness check in the verdict,
// not a Go error — broken fixtures must yield verdicts. The returned
// error covers only infrastructure problems an expectation cannot
// describe (an unvalidated scenario, a build failure).
func Run(sc *Scenario, opts Options) (*Result, error) {
	g, err := buildGrid(sc)
	if err != nil {
		return nil, err
	}
	spec := sc.spec(g)
	spec.TraceCapacity = opts.TraceCapacity
	o := &runOutcome{sc: sc, obtain: stats.Accumulator{Retain: true}, granted: make(map[mutex.ID]int)}
	spec.OnGrant = o.grant
	spec.Faults = run.Faults{
		Schedule:    buildSchedule(sc, g),
		HolderKills: holderKills(sc, g),
	}
	r, err := run.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %v", sc.Name, err)
	}
	o.Outcome = r.Drive()
	if sc.Expect.Quiescent {
		o.Monitor.AssertQuiescent()
	}
	return &Result{Verdict: evaluate(o), Trace: o.Trace}, nil
}

// buildGrid realizes the scenario topology, adding the reserved
// infrastructure nodes per cluster so the application process count is
// what the file declares regardless of the system under test.
func buildGrid(sc *Scenario) (*topology.Grid, error) {
	per := sc.NodesPerCluster()
	t := &sc.Topology
	switch t.Kind {
	case TopoGrid5000:
		return topology.Grid5000(per), nil
	case TopoMatrix:
		return t.Matrix.Grid(per)
	case TopoTree:
		return topology.NewTree(sc.treeSpec())
	default:
		return topology.Uniform(t.Clusters, per, t.LocalRTT, t.RemoteRTT), nil
	}
}

// buildSchedule collects the scenario's scheduled faults (fixed crashes
// and restarts plus seeded crash windows) into one faults.Schedule.
func buildSchedule(sc *Scenario, g *topology.Grid) faults.Schedule {
	var sched faults.Schedule
	for i, f := range sc.Faults {
		switch f.Kind {
		case FaultCrash:
			sched = append(sched, faults.Event{At: des.Time(f.At), Node: f.Node, Kind: faults.Crash})
		case FaultRestart:
			sched = append(sched, faults.Event{At: des.Time(f.At), Node: f.Node, Kind: faults.Restart})
		case FaultCrashWindow:
			sched = append(sched, faults.Windows(faults.WindowsConfig{
				Seed:    faultSeed(sc.Seed, i),
				Nodes:   victimSet(sc, g, f.Victims),
				Crashes: f.Crashes,
				Horizon: f.Horizon,
				MinDown: f.MinDown,
				MaxDown: f.MaxDown,
			})...)
		case FaultPartition:
			var cut []int
			for _, c := range f.Clusters {
				cut = append(cut, g.NodesIn(c)...)
			}
			sort.Ints(cut)
			sched = append(sched, faults.Event{At: des.Time(f.At), Node: -1, Kind: faults.PartitionStart, Nodes: cut})
			if f.HealAt > 0 {
				sched = append(sched, faults.Event{At: des.Time(f.HealAt), Node: -1, Kind: faults.PartitionEnd})
			}
		}
	}
	return sched
}

// victimSet resolves a crash_window candidate set name.
func victimSet(sc *Scenario, g *topology.Grid, name string) []int {
	switch name {
	case VictimsCoordinators:
		var out []int
		for c := 0; c < g.NumClusters(); c++ {
			out = append(out, g.NodesIn(c)[0])
		}
		return out
	case VictimsStandbys:
		var out []int
		for c := 0; c < g.NumClusters(); c++ {
			out = append(out, g.NodesIn(c)[1])
		}
		return out
	default:
		return sc.System.AppNodes(g)
	}
}

// holderKills resolves the scenario's holder_kill faults. Unspecified
// victims and ordinals are drawn from the scenario seed, mixed per fault
// index so multiple seeded kills draw independently.
func holderKills(sc *Scenario, g *topology.Grid) []run.HolderKill {
	var kills []run.HolderKill
	candidates := sc.System.AppNodes(g)
	for i, f := range sc.Faults {
		if f.Kind != FaultHolderKill {
			continue
		}
		t := faults.OnCSEntry(faultSeed(sc.Seed, i), candidates, sc.Workload.CSPerProcess)
		if f.Victim >= 0 {
			t.Victim = f.Victim
		}
		if f.Entry > 0 {
			t.Entry = f.Entry
		}
		kills = append(kills, run.HolderKill{Victim: t.Victim, Entry: t.Entry, Coordinator: f.Target == "coordinator"})
	}
	return kills
}

// faultSeed derives an independent stream for the i-th fault entry.
func faultSeed(seed int64, i int) int64 { return rng.Mix(seed, uint64(i+1)) }
