package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"gridmutex/internal/run"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

// Scenario is one declarative conformance case: everything a run needs —
// topology, workload, system under test, fault schedule — plus the
// expectation block the verdict is judged against.
type Scenario struct {
	// Name identifies the scenario; corpus names must be unique.
	Name string
	// Doc is a free-text description carried into verdicts.
	Doc string
	// Seed drives every random stream of the run (network jitter, loss,
	// workload idle times, seeded fault draws).
	Seed int64

	Topology Topology
	// Workload's own Seed is unused: the scenario's drives every stream.
	Workload workload.Params
	System   System
	Network  Network
	Faults   []Fault
	Run      RunSpec
	Expect   Expect
}

// Topology declares the physical grid. The scenario counts application
// processes; the engine adds the infrastructure nodes the system under
// test reserves per cluster (coordinator, standby).
type Topology struct {
	// Kind is "uniform", "grid5000", "matrix" or "tree".
	Kind string
	// Clusters is the cluster count. A file declares it for uniform only
	// (grid5000 has 9, a matrix brings its own and a tree's is its fan-out
	// product); validation settles it for every kind.
	Clusters int
	// AppsPerCluster is the number of application processes per cluster.
	AppsPerCluster int
	// LocalRTT / RemoteRTT shape the uniform grid. For a tree, LocalRTT
	// is the intra-cluster (leaf) round trip.
	LocalRTT, RemoteRTT time.Duration
	// Matrix is the inline cluster RTT matrix ("matrix" kind), in the
	// textual format of topology.ParseMatrixSpec.
	Matrix *topology.Matrix
	// Fanouts and LevelRTT declare a synthetic switching tree ("tree"
	// kind): Fanouts[0] regions under the root, each split into
	// Fanouts[1] zones, and so on; LevelRTT[i] is the round trip between
	// nodes whose lowest common switch sits at depth i. One RTT per
	// fan-out level (topology.TreeSpec).
	Fanouts  []int
	LevelRTT []time.Duration
}

// System declares what runs on the grid: the run kernel's own description,
// which the decoder writes the file's keys straight into, plus the one key
// that exists only in the file.
type System struct {
	run.System
	// Recovery deploys the crash-tolerant composition: a primary
	// coordinator plus a standby per cluster, heartbeat failure detectors
	// and epoch-fenced token regeneration. Validation leaves Heartbeat
	// (default 20ms) positive exactly when Recovery is set.
	Recovery bool
}

// Network declares the fabric conditions.
type Network struct {
	// Jitter is the fractional per-message latency jitter in [0, 1].
	Jitter float64
	// Loss drops each message with this probability in [0, 1).
	Loss float64
	// Reliable wraps the fabric in the sequencing/ack/retransmission
	// layer; required whenever Loss > 0.
	Reliable bool
	// RTO is the retransmission timeout (default 3× the largest RTT).
	RTO time.Duration
}

// Fault kinds.
const (
	// FaultCrash fail-stops one node at a fixed virtual instant.
	FaultCrash = "crash"
	// FaultRestart revives a node's connectivity at a fixed instant.
	FaultRestart = "restart"
	// FaultCrashWindow draws a seeded schedule of distinct victims
	// crashing at uniform instants within a horizon (faults.Windows).
	FaultCrashWindow = "crash_window"
	// FaultHolderKill crashes a victim the instant it enters its k-th
	// critical section — the worst case for token algorithms. With
	// Target "coordinator" the crash is redirected to the victim's
	// cluster primary at that same instant (the primary is IN).
	FaultHolderKill = "holder_kill"
	// FaultPartition cuts the listed clusters off from the rest of the
	// grid at a fixed instant; heal_at (when positive) heals the cut.
	// Links crossing the cut drop at delivery time; nodes stay alive on
	// both sides, so the minority freezes rather than crashes.
	FaultPartition = "partition"
)

// Victim candidate sets for crash_window faults.
const (
	VictimsApps         = "apps"
	VictimsCoordinators = "coordinators"
	VictimsStandbys     = "standbys"
)

// Fault is one entry of the fault schedule.
type Fault struct {
	Kind string

	// crash / restart
	Node int
	At   time.Duration

	// crash_window
	Victims          string // apps | coordinators | standbys
	Crashes          int
	Horizon          time.Duration
	MinDown, MaxDown time.Duration

	// holder_kill
	Victim int    // application node index; -1 draws from the seed
	Entry  int    // 1-based CS-entry ordinal; 0 draws from the seed
	Target string // "app" (default) or "coordinator"

	// partition
	Clusters []int         // the side cut off from the rest of the grid
	HealAt   time.Duration // heal instant; 0 means the cut never heals
}

// RunSpec bounds the run.
type RunSpec struct {
	// Horizon, when positive, runs the simulation for a fixed stretch of
	// virtual time instead of to workload completion — the shape for
	// scenarios where starvation is expected (frozen clusters).
	Horizon time.Duration
	// EventLimit caps the events without a grant (run.Spec.EventLimit; 0
	// derives the default from the expected grant count).
	EventLimit uint64
}

// Completion modes.
const (
	// CompleteAll: every application process finishes its critical
	// sections.
	CompleteAll = "all"
	// CompleteSurvivors: every non-crashed application process finishes.
	CompleteSurvivors = "survivors"
	// CompleteNone: no completion requirement (bounded-horizon runs).
	CompleteNone = "none"
)

// Envelope bounds one named metric (see metrics.go for the registry).
type Envelope struct {
	Metric   string
	Min, Max float64
	HasMin   bool
	HasMax   bool
}

// Expect is the expectation block. Counts are bounded by envelopes.
type Expect struct {
	// Quiescent asserts the monitor's quiescence invariant after the run
	// drains (default true; set false for bounded-horizon runs that
	// leave requests starved by design).
	Quiescent bool
	// Complete is CompleteAll (default), CompleteSurvivors or
	// CompleteNone.
	Complete string
	// StandbyActivated lists clusters whose standby must take over;
	// StandbyQuiet lists clusters whose standby must not.
	StandbyActivated, StandbyQuiet []int
	// FrozenGroups lists recovery group names (e.g. "intra1") that must
	// report frozen after the run.
	FrozenGroups []string
	// ClusterComplete lists clusters whose every application must finish
	// even when Complete is "none" (frozen-cluster scenarios assert the
	// survivors this way).
	ClusterComplete []int
	// Envelopes bound named metrics; the registry says what system each
	// metric needs.
	Envelopes []Envelope
}

// Load parses, decodes and validates one scenario document.
func Load(data []byte) (*Scenario, error) {
	root, err := Parse(data)
	if err != nil {
		return nil, err
	}
	sc, err := decode(root)
	if err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// decode walks the node tree into the typed model, rejecting unknown
// keys — a typo in an expectation must fail the load, not silently pass
// the run.
func decode(root *node) (*Scenario, error) {
	sc := &Scenario{Expect: Expect{Quiescent: true, Complete: CompleteAll}}
	if err := eachKey(root, "document", map[string]func(*node) error{
		"name":     func(n *node) error { return str(n, &sc.Name) },
		"doc":      func(n *node) error { return str(n, &sc.Doc) },
		"seed":     func(n *node) error { return i64(n, &sc.Seed) },
		"topology": func(n *node) error { return decodeTopology(n, &sc.Topology) },
		"workload": func(n *node) error { return decodeWorkload(n, &sc.Workload) },
		"system":   func(n *node) error { return decodeSystem(n, &sc.System) },
		"network":  func(n *node) error { return decodeNetwork(n, &sc.Network) },
		"faults":   func(n *node) error { return decodeFaults(n, &sc.Faults) },
		"run":      func(n *node) error { return decodeRun(n, &sc.Run) },
		"expect":   func(n *node) error { return decodeExpect(n, &sc.Expect) },
	}); err != nil {
		return nil, err
	}
	return sc, nil
}

func decodeTopology(n *node, t *Topology) error {
	return eachKey(n, "topology", map[string]func(*node) error{
		"kind":             func(n *node) error { return str(n, &t.Kind) },
		"clusters":         func(n *node) error { return intval(n, &t.Clusters) },
		"apps_per_cluster": func(n *node) error { return intval(n, &t.AppsPerCluster) },
		"local_rtt":        func(n *node) error { return dur(n, &t.LocalRTT) },
		"remote_rtt":       func(n *node) error { return dur(n, &t.RemoteRTT) },
		"fanouts":          func(n *node) error { return list(n, &t.Fanouts, intval) },
		"level_rtt":        func(n *node) error { return list(n, &t.LevelRTT, dur) },
		"matrix": func(n *node) error {
			var rows []string
			if err := list(n, &rows, str); err != nil {
				return err
			}
			m, err := topology.ParseMatrixSpec(strings.NewReader(strings.Join(rows, "\n") + "\n"))
			if err != nil {
				return fmt.Errorf("%v (%s)", err, line1(n.line))
			}
			t.Matrix = m
			return nil
		},
	})
}

func decodeWorkload(n *node, w *workload.Params) error {
	err := eachKey(n, "workload", map[string]func(*node) error{
		"alpha":          func(n *node) error { return dur(n, &w.Alpha) },
		"rho":            func(n *node) error { return f64(n, &w.Rho) },
		"cs_per_process": func(n *node) error { return intval(n, &w.CSPerProcess) },
		"hot_cluster":    func(n *node) error { return intval(n, &w.HotCluster) },
		"hot_skew":       func(n *node) error { return f64(n, &w.HotSkew) },
		"phases": func(n *node) error {
			return eachItem(n, "phases", func(item *node) error {
				var ph workload.Phase
				if err := eachKey(item, "phase", map[string]func(*node) error{
					"rho":   func(n *node) error { return f64(n, &ph.Rho) },
					"until": func(n *node) error { return dur(n, &ph.Until) },
				}); err != nil {
					return err
				}
				w.Phases = append(w.Phases, ph)
				return nil
			})
		},
	})
	if err != nil {
		return err
	}
	// β = ρ·α must fit a time.Duration: past 2^63 nanoseconds the idle
	// draws saturate and the workload degenerates to "never request
	// again" — reject the parameters instead of running a vacuous
	// scenario. The check uses the effective alpha (the default applies
	// when the key is omitted).
	alpha := w.Alpha
	if alpha == 0 {
		alpha = defaultAlpha
	}
	if w.Rho*float64(alpha) >= float64(math.MaxInt64) {
		return fmt.Errorf("scenario: %s: rho %g with alpha %v overflows the idle time", line1(n.line), w.Rho, alpha)
	}
	for i, ph := range w.Phases {
		if ph.Rho*float64(alpha) >= float64(math.MaxInt64) {
			return fmt.Errorf("scenario: %s: phase %d rho %g with alpha %v overflows the idle time", line1(n.line), i, ph.Rho, alpha)
		}
	}
	return nil
}

func decodeSystem(n *node, s *System) error {
	return eachKey(n, "system", map[string]func(*node) error{
		"intra":      func(n *node) error { return str(n, &s.Intra) },
		"inter":      func(n *node) error { return str(n, &s.Inter) },
		"flat":       func(n *node) error { return str(n, &s.Flat) },
		"levels":     func(n *node) error { return list(n, &s.Levels, str) },
		"groups":     func(n *node) error { return list(n, &s.Groups, intval) },
		"adaptive":   func(n *node) error { return boolean(n, &s.AdaptiveInter) },
		"local_bias": func(n *node) error { return intval(n, &s.LocalBias) },
		"recovery":   func(n *node) error { return boolean(n, &s.Recovery) },
		"heartbeat":  func(n *node) error { return dur(n, &s.Heartbeat) },
	})
}

func decodeNetwork(n *node, nw *Network) error {
	return eachKey(n, "network", map[string]func(*node) error{
		"jitter":   func(n *node) error { return f64(n, &nw.Jitter) },
		"loss":     func(n *node) error { return f64(n, &nw.Loss) },
		"reliable": func(n *node) error { return boolean(n, &nw.Reliable) },
		"rto":      func(n *node) error { return dur(n, &nw.RTO) },
	})
}

func decodeFaults(n *node, out *[]Fault) error {
	return eachItem(n, "faults", func(item *node) error {
		f := Fault{Victim: -1, Target: "app"}
		if err := eachKey(item, "fault", map[string]func(*node) error{
			"kind":     func(n *node) error { return str(n, &f.Kind) },
			"node":     func(n *node) error { return intval(n, &f.Node) },
			"at":       func(n *node) error { return dur(n, &f.At) },
			"victims":  func(n *node) error { return str(n, &f.Victims) },
			"crashes":  func(n *node) error { return intval(n, &f.Crashes) },
			"horizon":  func(n *node) error { return dur(n, &f.Horizon) },
			"min_down": func(n *node) error { return dur(n, &f.MinDown) },
			"max_down": func(n *node) error { return dur(n, &f.MaxDown) },
			"victim":   func(n *node) error { return intval(n, &f.Victim) },
			"entry":    func(n *node) error { return intval(n, &f.Entry) },
			"target":   func(n *node) error { return str(n, &f.Target) },
			"clusters": func(n *node) error { return list(n, &f.Clusters, intval) },
			"heal_at":  func(n *node) error { return dur(n, &f.HealAt) },
		}); err != nil {
			return err
		}
		*out = append(*out, f)
		return nil
	})
}

func decodeRun(n *node, r *RunSpec) error {
	return eachKey(n, "run", map[string]func(*node) error{
		"horizon": func(n *node) error { return dur(n, &r.Horizon) },
		"event_limit": func(n *node) error {
			var v int64
			if err := i64(n, &v); err != nil {
				return err
			}
			if v < 0 {
				return fmt.Errorf("scenario: %s: event_limit must be non-negative", line1(n.line))
			}
			r.EventLimit = uint64(v)
			return nil
		},
	})
}

func decodeExpect(n *node, e *Expect) error {
	return eachKey(n, "expect", map[string]func(*node) error{
		"quiescent":         func(n *node) error { return boolean(n, &e.Quiescent) },
		"complete":          func(n *node) error { return str(n, &e.Complete) },
		"standby_activated": func(n *node) error { return list(n, &e.StandbyActivated, intval) },
		"standby_quiet":     func(n *node) error { return list(n, &e.StandbyQuiet, intval) },
		"frozen_groups":     func(n *node) error { return list(n, &e.FrozenGroups, str) },
		"cluster_complete":  func(n *node) error { return list(n, &e.ClusterComplete, intval) },
		"envelopes": func(n *node) error {
			return eachItem(n, "envelopes", func(item *node) error {
				env := Envelope{}
				if err := eachKey(item, "envelope", map[string]func(*node) error{
					"metric": func(n *node) error { return str(n, &env.Metric) },
					"min": func(n *node) error {
						env.HasMin = true
						return f64signed(n, &env.Min)
					},
					"max": func(n *node) error {
						env.HasMax = true
						return f64signed(n, &env.Max)
					},
				}); err != nil {
					return err
				}
				e.Envelopes = append(e.Envelopes, env)
				return nil
			})
		},
	})
}

// --- scalar decoding helpers; every rejection names the source line ---

// eachKey dispatches a mapping's keys to handlers, rejecting unknown keys.
func eachKey(n *node, ctx string, handlers map[string]func(*node) error) error {
	if n.kind != mapNode {
		return fmt.Errorf("scenario: %s: %s must be a mapping", line1(n.line), ctx)
	}
	for _, k := range n.keys {
		h, ok := handlers[k]
		if !ok {
			return fmt.Errorf("scenario: %s: unknown key %q in %s", line1(n.vals[k].line), k, ctx)
		}
		if err := h(n.vals[k]); err != nil {
			return err
		}
	}
	return nil
}

// eachItem iterates a list node.
func eachItem(n *node, ctx string, fn func(*node) error) error {
	if n.kind != listNode {
		return fmt.Errorf("scenario: %s: %s must be a list", line1(n.line), ctx)
	}
	for _, item := range n.items {
		if err := fn(item); err != nil {
			return err
		}
	}
	return nil
}

func scalarOf(n *node) (string, error) {
	if n.kind != scalarNode {
		return "", fmt.Errorf("scenario: %s: expected a scalar value", line1(n.line))
	}
	return n.scalar, nil
}

func str(n *node, out *string) error {
	s, err := scalarOf(n)
	if err != nil {
		return err
	}
	*out = s
	return nil
}

func boolean(n *node, out *bool) error {
	s, err := scalarOf(n)
	if err != nil {
		return err
	}
	switch s {
	case "true":
		*out = true
	case "false":
		*out = false
	default:
		return fmt.Errorf("scenario: %s: %q is not a boolean (true/false)", line1(n.line), s)
	}
	return nil
}

func i64(n *node, out *int64) error {
	s, err := scalarOf(n)
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return fmt.Errorf("scenario: %s: %q is not an integer", line1(n.line), s)
	}
	*out = v
	return nil
}

func intval(n *node, out *int) error {
	var v int64
	if err := i64(n, &v); err != nil {
		return err
	}
	if v > math.MaxInt32 || v < math.MinInt32 {
		return fmt.Errorf("scenario: %s: %d out of range", line1(n.line), v)
	}
	*out = int(v)
	return nil
}

// f64 parses a non-negative finite float — the shape every rate in the
// format has. NaN, infinities and negatives are rejected at decode time
// so they can never reach an engine division.
func f64(n *node, out *float64) error {
	if err := f64signed(n, out); err != nil {
		return err
	}
	if *out < 0 {
		return fmt.Errorf("scenario: %s: %q must be non-negative", line1(n.line), n.scalar)
	}
	return nil
}

// f64signed parses a finite float of either sign (envelope bounds).
func f64signed(n *node, out *float64) error {
	s, err := scalarOf(n)
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("scenario: %s: %q is not a number", line1(n.line), s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("scenario: %s: %q is not finite", line1(n.line), s)
	}
	*out = v
	return nil
}

// dur parses a non-negative time.Duration ("50ms", "4s").
func dur(n *node, out *time.Duration) error {
	s, err := scalarOf(n)
	if err != nil {
		return err
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("scenario: %s: %q is not a duration", line1(n.line), s)
	}
	if d < 0 {
		return fmt.Errorf("scenario: %s: duration %q must be non-negative", line1(n.line), s)
	}
	*out = d
	return nil
}

// list decodes a list node, each item with the scalar decoder one.
func list[T any](n *node, out *[]T, one func(*node, *T) error) error {
	return eachItem(n, "list", func(item *node) error {
		var v T
		if err := one(item, &v); err != nil {
			return err
		}
		*out = append(*out, v)
		return nil
	})
}
