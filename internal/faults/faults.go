// Package faults generates and injects deterministic node-fault
// schedules for the simulated grid: which physical nodes crash (and
// possibly restart) at which virtual instants. A schedule is plain data —
// generated once from a seed, byte-identical for equal seeds — and is
// injected by scheduling ordinary virtual-time events on the simulator,
// so a faulty run is exactly as reproducible as a fault-free one.
//
// Two generator shapes cover the experiments:
//
//   - Windows: n distinct victim nodes crash at uniform instants within a
//     horizon and stay down for a uniform duration (or forever).
//   - OnCSEntry: a trigger fired by the workload when a chosen victim
//     enters its k-th critical section — the instant is not known a
//     priori, so it is expressed as a predicate rather than a timestamp.
//     Crashing a node the moment it enters the CS is the worst case for
//     token algorithms: the token dies with it.
//
// Targeting coordinators is a victim-list choice, not a separate
// mechanism: pass the coordinator node indices as the candidate set.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"gridmutex/internal/des"
)

// Kind distinguishes fault events.
type Kind uint8

const (
	// Crash fail-stops a node: messages to and from it are discarded.
	Crash Kind = iota
	// Restart revives a node's connectivity; protocol state is whatever
	// the recovery layer rebuilds.
	Restart
	// PartitionStart cuts the network into two sides: Event.Nodes versus
	// the rest. Links crossing the cut discard at delivery time.
	PartitionStart
	// PartitionEnd heals the active cut.
	PartitionEnd
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case PartitionStart:
		return "partition"
	case PartitionEnd:
		return "heal"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the virtual instant the fault fires.
	At des.Time
	// Node is the physical topology node affected (crash/restart kinds;
	// -1 for partition kinds).
	Node int
	// Kind is Crash, Restart, PartitionStart or PartitionEnd.
	Kind Kind
	// Nodes is the cut-off side of a PartitionStart; nil otherwise.
	Nodes []int
}

// Schedule is a time-ordered fault plan.
type Schedule []Event

// String renders the schedule one event per line — the canonical form the
// determinism tests compare byte for byte.
func (s Schedule) String() string {
	var b strings.Builder
	for _, e := range s {
		switch e.Kind {
		case PartitionStart:
			fmt.Fprintf(&b, "%v nodes=%v at=%v\n", e.Kind, e.Nodes, e.At)
		case PartitionEnd:
			fmt.Fprintf(&b, "%v at=%v\n", e.Kind, e.At)
		default:
			fmt.Fprintf(&b, "%v node=%d at=%v\n", e.Kind, e.Node, e.At)
		}
	}
	return b.String()
}

// sort orders events by (At, Node, Kind) — a total order, since a node
// has at most one event per kind per instant.
func (s Schedule) sort() {
	sort.Slice(s, func(i, j int) bool {
		if s[i].At != s[j].At {
			return s[i].At < s[j].At
		}
		if s[i].Node != s[j].Node {
			return s[i].Node < s[j].Node
		}
		return s[i].Kind < s[j].Kind
	})
}

// Actions are the callbacks a schedule drives when injected. Crash is
// typically a closure over simnet.Network.Crash plus the bookkeeping the
// run needs (marking the workload process dead, telling the check monitor);
// Restart mirrors it. Partition and Heal are needed only when the schedule
// carries partition events.
type Actions struct {
	Crash     func(node int)
	Restart   func(node int)
	Partition func(nodes []int)
	Heal      func()
}

// Apply injects the schedule: every event becomes one virtual-time event
// on the simulator. Call before the run starts; events in the simulator's
// past panic (des rejects them).
func (s Schedule) Apply(sim *des.Simulator, a Actions) {
	if a.Crash == nil || a.Restart == nil {
		panic("faults: nil action")
	}
	for _, e := range s {
		e := e
		switch e.Kind {
		case Crash:
			sim.At(e.At, func() { a.Crash(e.Node) })
		case Restart:
			sim.At(e.At, func() { a.Restart(e.Node) })
		case PartitionStart:
			if a.Partition == nil {
				panic("faults: schedule has partition events but Actions.Partition is nil")
			}
			sim.At(e.At, func() { a.Partition(e.Nodes) })
		case PartitionEnd:
			if a.Heal == nil {
				panic("faults: schedule has partition events but Actions.Heal is nil")
			}
			sim.At(e.At, func() { a.Heal() })
		default:
			panic(fmt.Sprintf("faults: unknown event kind %v", e.Kind))
		}
	}
}

// WindowsConfig parameterizes the Windows generator.
type WindowsConfig struct {
	// Seed makes the schedule deterministic: equal configs with equal
	// seeds render byte-identical schedules.
	Seed int64
	// Nodes is the victim candidate set (e.g. all application nodes, or
	// only coordinator nodes for coordinator-targeted campaigns).
	Nodes []int
	// Crashes is how many distinct victims crash (capped at len(Nodes)).
	Crashes int
	// Horizon bounds the crash instants: each is uniform in (0, Horizon].
	Horizon time.Duration
	// MinDown and MaxDown bound the down-time before the restart, uniform
	// in [MinDown, MaxDown]. MaxDown == 0 means victims never restart.
	MinDown, MaxDown time.Duration
}

// Windows draws a crash-window schedule: Crashes distinct victims from
// Nodes, each crashing once within the horizon and restarting after its
// down-time (if configured). The result is sorted and byte-identical per
// (config, seed).
func Windows(cfg WindowsConfig) Schedule {
	if cfg.Horizon <= 0 {
		panic("faults: non-positive horizon")
	}
	if cfg.MaxDown < cfg.MinDown {
		panic("faults: MaxDown before MinDown")
	}
	k := cfg.Crashes
	if k > len(cfg.Nodes) {
		k = len(cfg.Nodes)
	}
	if k <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Distinct victims via a seeded permutation of the candidate list:
	// one crash window per node keeps crash/restart pairs well nested.
	perm := rng.Perm(len(cfg.Nodes))
	var s Schedule
	for i := 0; i < k; i++ {
		node := cfg.Nodes[perm[i]]
		at := des.Time(1 + rng.Int63n(int64(cfg.Horizon)))
		s = append(s, Event{At: at, Node: node, Kind: Crash})
		if cfg.MaxDown > 0 {
			down := cfg.MinDown
			if spread := int64(cfg.MaxDown - cfg.MinDown); spread > 0 {
				down += time.Duration(rng.Int63n(spread + 1))
			}
			s = append(s, Event{At: at + down, Node: node, Kind: Restart})
		}
	}
	s.sort()
	return s
}

// CSEntryTrigger is the crash-on-CS-entry fault: the Victim node crashes
// the instant it enters its Entry-th critical section (1-based). The
// workload harness fires it — the entry instant is a property of the run,
// not of the schedule.
type CSEntryTrigger struct {
	Victim int
	Entry  int
}

// String renders the trigger canonically.
func (t CSEntryTrigger) String() string {
	return fmt.Sprintf("crash node=%d on cs-entry #%d\n", t.Victim, t.Entry)
}

// PartitionPulse draws a single fixed-length partition window: one seeded
// side from sides is cut off at a uniform instant in (0, startHorizon]
// and healed exactly duration later — the shape swept by the harness's
// partition experiment, where the cut length is the controlled variable.
// The result is byte-identical per (arguments, seed).
func PartitionPulse(seed int64, sides [][]int, startHorizon, duration time.Duration) Schedule {
	if startHorizon <= 0 {
		panic("faults: non-positive start horizon")
	}
	if duration <= 0 {
		panic("faults: non-positive pulse duration")
	}
	if len(sides) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	side := sides[rng.Intn(len(sides))]
	at := des.Time(1 + rng.Int63n(int64(startHorizon)))
	cut := append([]int(nil), side...)
	sort.Ints(cut)
	return Schedule{
		{At: at, Node: -1, Kind: PartitionStart, Nodes: cut},
		{At: at + des.Time(duration), Node: -1, Kind: PartitionEnd},
	}
}

// OnCSEntry draws a crash-on-CS-entry trigger: a uniform victim from the
// candidate set and a uniform entry ordinal in [1, maxEntry].
func OnCSEntry(seed int64, victims []int, maxEntry int) CSEntryTrigger {
	if len(victims) == 0 {
		panic("faults: no victim candidates")
	}
	if maxEntry <= 0 {
		panic("faults: non-positive entry bound")
	}
	rng := rand.New(rand.NewSource(seed))
	return CSEntryTrigger{
		Victim: victims[rng.Intn(len(victims))],
		Entry:  1 + rng.Intn(maxEntry),
	}
}
