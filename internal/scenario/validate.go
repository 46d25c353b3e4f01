package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"gridmutex/internal/reliable"
	"gridmutex/internal/run"
	"gridmutex/internal/topology"
)

// Topology kinds.
const (
	TopoUniform  = "uniform"
	TopoGrid5000 = "grid5000"
	TopoMatrix   = "matrix"
	TopoTree     = "tree"
)

// treeSpec assembles the topology.TreeSpec of a tree scenario: fan-outs
// and level RTTs from the file, leaf size from the application count plus
// the reserved infrastructure nodes (same accounting as every other
// kind), leaf RTT from local_rtt.
func (sc *Scenario) treeSpec() topology.TreeSpec {
	return topology.TreeSpec{
		Fanouts:  sc.Topology.Fanouts,
		LeafSize: sc.NodesPerCluster(),
		LeafRTT:  sc.Topology.LocalRTT,
		LevelRTT: sc.Topology.LevelRTT,
	}
}

// spec is the scenario as the run kernel takes it, on grid g: the one
// translation both the loader (g nil: run.Spec.Validate then skips its one
// grid rule, the jitter's, which a scenario's jitter of at most 1 never
// breaks) and the engine (which adds the faults resolved on g) use.
func (sc *Scenario) spec(g *topology.Grid) run.Spec {
	spec := run.Spec{
		Grid: g, Seed: sc.Seed, Jitter: sc.Network.Jitter, Loss: sc.Network.Loss,
		Workload: sc.Workload, System: sc.System.System,
		Horizon: sc.Run.Horizon, EventLimit: sc.Run.EventLimit,
	}
	if sc.Network.Reliable {
		spec.Reliable = &reliable.Options{RTO: sc.Network.RTO}
	}
	return spec
}

// NodesPerCluster returns application processes plus the infrastructure
// nodes the system under test reserves (run.System.Reserved).
func (sc *Scenario) NodesPerCluster() int {
	return sc.Topology.AppsPerCluster + sc.System.Reserved()
}

// Validate normalizes defaults and rejects every inconsistency the
// engine would otherwise have to guess about. It is called by Load; a
// hand-built Scenario must call it before Run.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if !validName(sc.Name) {
		return fmt.Errorf("scenario: name %q must be lowercase letters, digits and dashes", sc.Name)
	}
	// The run first: a tree topology's leaf size counts the system's
	// reserved nodes, which follow the defaulted heartbeat.
	if err := sc.validateRun(); err != nil {
		return err
	}
	if err := sc.validateTopology(); err != nil {
		return err
	}
	if w := &sc.Workload; w.HotSkew > 1 && (w.HotCluster < 0 || w.HotCluster >= sc.Topology.Clusters) {
		return fmt.Errorf("scenario: hot_cluster %d outside the %d-cluster grid", w.HotCluster, sc.Topology.Clusters)
	}
	if err := sc.validateNetwork(); err != nil {
		return err
	}
	if err := sc.validateFaults(); err != nil {
		return err
	}
	return sc.validateExpect()
}

func validName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '-':
		default:
			return false
		}
	}
	return true
}

func (sc *Scenario) validateTopology() error {
	t := &sc.Topology
	if t.Kind == "" {
		t.Kind = TopoUniform
	}
	switch t.Kind {
	case TopoUniform:
		if t.Clusters == 0 {
			t.Clusters = 3
		}
		if t.Clusters < 1 {
			return fmt.Errorf("scenario: topology needs at least one cluster")
		}
		if t.LocalRTT == 0 {
			t.LocalRTT = time.Millisecond
		}
		if t.RemoteRTT == 0 {
			t.RemoteRTT = 20 * time.Millisecond
		}
	case TopoGrid5000:
		if t.Clusters != 0 && t.Clusters != 9 {
			return fmt.Errorf("scenario: grid5000 has 9 clusters, not %d", t.Clusters)
		}
		t.Clusters = 9
	case TopoMatrix:
		if t.Matrix == nil {
			return fmt.Errorf("scenario: kind: matrix requires an inline matrix block")
		}
		if t.Clusters != 0 && t.Clusters != len(t.Matrix.Names) {
			return fmt.Errorf("scenario: clusters %d contradicts the %d-cluster inline matrix",
				t.Clusters, len(t.Matrix.Names))
		}
		t.Clusters = len(t.Matrix.Names)
	case TopoTree:
		if len(t.Fanouts) == 0 {
			return fmt.Errorf("scenario: kind: tree requires a fanouts list")
		}
		if t.LocalRTT == 0 {
			t.LocalRTT = time.Millisecond
		}
	default:
		return fmt.Errorf("scenario: unknown topology kind %q (uniform/grid5000/matrix/tree)", t.Kind)
	}
	if t.Kind != TopoMatrix && t.Matrix != nil {
		return fmt.Errorf("scenario: inline matrix requires kind: matrix")
	}
	if t.Kind != TopoTree && (len(t.Fanouts) > 0 || len(t.LevelRTT) > 0) {
		return fmt.Errorf("scenario: fanouts/level_rtt require kind: tree")
	}
	if t.AppsPerCluster == 0 {
		t.AppsPerCluster = 3
	}
	if t.AppsPerCluster < 1 {
		return fmt.Errorf("scenario: apps_per_cluster must be at least 1")
	}
	if t.Kind == TopoTree {
		// The leaf size folds in the reserved infrastructure nodes, so the
		// full spec is only checkable after the apps_per_cluster default.
		if err := sc.treeSpec().Validate(); err != nil {
			return fmt.Errorf("scenario: %v", err)
		}
		c, _ := sc.treeSpec().Clusters()
		if t.Clusters != 0 && t.Clusters != c {
			return fmt.Errorf("scenario: clusters %d contradicts the fan-out product %d", t.Clusters, c)
		}
		t.Clusters = c
	}
	return nil
}

// defaultAlpha is the critical-section duration assumed when a scenario
// omits alpha; the loader's overflow check uses the same value.
const defaultAlpha = 5 * time.Millisecond

// validateRun fills the file's defaults and holds the Spec the engine would
// run to the kernel's own rules, so the scenario format can never accept a
// run the kernel rejects. The checks written out here are the file's alone.
func (sc *Scenario) validateRun() error {
	s, w := &sc.System, &sc.Workload
	if s.Heartbeat != 0 && !s.Recovery {
		return fmt.Errorf("scenario: heartbeat needs recovery: true")
	}
	if s.Recovery && s.Heartbeat == 0 {
		s.Heartbeat = 20 * time.Millisecond
	}
	if w.Alpha == 0 {
		w.Alpha = defaultAlpha
	}
	if w.CSPerProcess == 0 {
		w.CSPerProcess = 6
	}
	if err := sc.spec(nil).Validate(); err != nil {
		return fmt.Errorf("scenario: %v", err)
	}
	for i, g := range s.Groups {
		if g < 2 {
			return fmt.Errorf("scenario: group size %d at level %d (a one-child group adds nothing)", g, i+1)
		}
	}
	return nil
}

func (sc *Scenario) validateNetwork() error {
	n := &sc.Network
	if n.Jitter > 1 {
		return fmt.Errorf("scenario: jitter %v outside [0, 1]", n.Jitter)
	}
	if n.Loss > 0 && !n.Reliable {
		return fmt.Errorf("scenario: loss %v needs reliable: true (the algorithms assume reliable channels)", n.Loss)
	}
	if !n.Reliable && n.RTO != 0 {
		return fmt.Errorf("scenario: rto needs reliable: true")
	}
	return nil
}

func (sc *Scenario) validateFaults() error {
	total := sc.Topology.Clusters * sc.NodesPerCluster()
	for i, f := range sc.Faults {
		ctx := fmt.Sprintf("scenario: fault %d (%s)", i, f.Kind)
		switch f.Kind {
		case FaultCrash, FaultRestart:
			if f.Node < 0 || f.Node >= total {
				return fmt.Errorf("%s: node %d outside the %d-node grid", ctx, f.Node, total)
			}
			if f.At <= 0 {
				return fmt.Errorf("%s: needs a positive at instant", ctx)
			}
		case FaultCrashWindow:
			switch f.Victims {
			case VictimsApps:
			case VictimsCoordinators, VictimsStandbys:
				if sc.System.Reserved() == 0 {
					return fmt.Errorf("%s: %s victims need a composed deployment", ctx, f.Victims)
				}
				if f.Victims == VictimsStandbys && !sc.System.Recovery {
					return fmt.Errorf("%s: standby victims need recovery: true", ctx)
				}
			default:
				return fmt.Errorf("%s: unknown victim set %q (apps/coordinators/standbys)", ctx, f.Victims)
			}
			if f.Crashes < 1 {
				return fmt.Errorf("%s: needs at least one crash", ctx)
			}
			if f.Horizon <= 0 {
				return fmt.Errorf("%s: needs a positive horizon", ctx)
			}
			if f.MaxDown < f.MinDown {
				return fmt.Errorf("%s: max_down %v before min_down %v", ctx, f.MaxDown, f.MinDown)
			}
		case FaultHolderKill:
			if f.Target != "app" && f.Target != "coordinator" {
				return fmt.Errorf("%s: unknown target %q (app/coordinator)", ctx, f.Target)
			}
			if f.Target == "coordinator" && sc.System.Reserved() == 0 {
				return fmt.Errorf("%s: coordinator target needs a composed deployment", ctx)
			}
			if f.Entry < 0 || f.Entry > sc.Workload.CSPerProcess {
				return fmt.Errorf("%s: entry %d outside [0, %d] (0 draws from the seed)",
					ctx, f.Entry, sc.Workload.CSPerProcess)
			}
			if f.Victim >= 0 {
				if f.Victim >= total {
					return fmt.Errorf("%s: victim %d outside the %d-node grid", ctx, f.Victim, total)
				}
				if f.Victim%sc.NodesPerCluster() < sc.System.Reserved() {
					return fmt.Errorf("%s: victim %d is an infrastructure node (apps start at offset %d per cluster)",
						ctx, f.Victim, sc.System.Reserved())
				}
			}
		case FaultPartition:
			if len(f.Clusters) == 0 {
				return fmt.Errorf("%s: needs a non-empty clusters list", ctx)
			}
			clusters := sc.Topology.Clusters
			seen := make(map[int]bool, len(f.Clusters))
			for _, c := range f.Clusters {
				if c < 0 || c >= clusters {
					return fmt.Errorf("%s: cluster %d outside the %d-cluster grid", ctx, c, clusters)
				}
				if seen[c] {
					return fmt.Errorf("%s: cluster %d listed twice", ctx, c)
				}
				seen[c] = true
			}
			if len(f.Clusters) >= clusters {
				return fmt.Errorf("%s: cutting off every cluster leaves nothing on the other side", ctx)
			}
			if f.At <= 0 {
				return fmt.Errorf("%s: needs a positive at instant", ctx)
			}
			if f.HealAt != 0 && f.HealAt <= f.At {
				return fmt.Errorf("%s: heal_at %v not after at %v", ctx, f.HealAt, f.At)
			}
			if !sc.System.Recovery {
				return fmt.Errorf("%s: needs recovery: true (without detectors a cut just starves both sides)", ctx)
			}
		case "":
			return fmt.Errorf("scenario: fault %d has no kind", i)
		default:
			return fmt.Errorf("scenario: fault %d has unknown kind %q", i, f.Kind)
		}
	}
	// The fabric models a single active cut, so partition windows must not
	// overlap: each cut has to heal before the next one starts.
	var parts []Fault
	for _, f := range sc.Faults {
		if f.Kind == FaultPartition {
			parts = append(parts, f)
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].At < parts[j].At })
	for i := 1; i < len(parts); i++ {
		prev := parts[i-1]
		if prev.HealAt == 0 || prev.HealAt > parts[i].At {
			return fmt.Errorf("scenario: partition at %v overlaps the cut starting at %v (one cut at a time)",
				prev.At, parts[i].At)
		}
	}
	return nil
}

func (sc *Scenario) validateExpect() error {
	e := &sc.Expect
	switch e.Complete {
	case CompleteAll, CompleteSurvivors, CompleteNone:
	default:
		return fmt.Errorf("scenario: unknown completion mode %q (all/survivors/none)", e.Complete)
	}
	clusters := sc.Topology.Clusters
	for _, set := range [][]int{e.StandbyActivated, e.StandbyQuiet, e.ClusterComplete} {
		for _, c := range set {
			if c < 0 || c >= clusters {
				return fmt.Errorf("scenario: expect names cluster %d outside the %d-cluster grid", c, clusters)
			}
		}
	}
	if !sc.System.Recovery && (len(e.StandbyActivated) > 0 || len(e.StandbyQuiet) > 0 || len(e.FrozenGroups) > 0) {
		return fmt.Errorf("scenario: standby/frozen expectations need recovery: true")
	}
	for _, c := range e.StandbyActivated {
		if slices.Contains(e.StandbyQuiet, c) {
			return fmt.Errorf("scenario: cluster %d is in both standby_activated and standby_quiet", c)
		}
	}
	for _, g := range e.FrozenGroups {
		if !validGroup(g, clusters) {
			return fmt.Errorf("scenario: frozen group %q is neither inter nor intraK with K below %d", g, clusters)
		}
	}
	seen := make(map[string]bool, len(e.Envelopes))
	for i, env := range e.Envelopes {
		d := metric(env.Metric)
		if d == nil {
			return fmt.Errorf("scenario: envelope %d bounds unknown metric %q (known: %v)",
				i, env.Metric, MetricNames())
		}
		if !sc.meets(d.needs) {
			return fmt.Errorf("scenario: envelope %d on %q needs %s: true", i, env.Metric, d.needs)
		}
		if !env.HasMin && !env.HasMax {
			return fmt.Errorf("scenario: envelope %d on %q has neither min nor max", i, env.Metric)
		}
		if env.HasMin && env.HasMax && env.Min > env.Max {
			return fmt.Errorf("scenario: envelope %d on %q has min %v above max %v", i, env.Metric, env.Min, env.Max)
		}
		if seen[env.Metric] {
			return fmt.Errorf("scenario: duplicate envelope for metric %q", env.Metric)
		}
		seen[env.Metric] = true
	}
	return nil
}

// validGroup reports whether name is a recovery group of a clusters-wide
// deployment: "inter", or "intraK" for a cluster K.
func validGroup(name string, clusters int) bool {
	if name == "inter" {
		return true
	}
	k, err := strconv.Atoi(strings.TrimPrefix(name, "intra"))
	return err == nil && k >= 0 && k < clusters && name == "intra"+strconv.Itoa(k)
}
