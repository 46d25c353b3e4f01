package scenario

import (
	"time"

	"gridmutex/internal/recovery"
	"gridmutex/internal/stats"
)

// Metric is one named measurement of a run, in registry order.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// metricDef is one entry of the registry: what a scenario must deploy for
// an envelope on the metric to load, and an extractor returning the value
// and whether the run produced it (a recovery metric is undefined on a
// plain run, a reliable metric on an unwrapped fabric).
type metricDef struct {
	name    string
	needs   need
	extract func(o *runOutcome) (float64, bool)
}

// need is the system key ("recovery", "adaptive", "reliable") a scenario
// must set to true before an envelope may bound a metric; "" for none.
type need string

const (
	needRecovery need = "recovery"
	needAdaptive need = "adaptive"
	needReliable need = "reliable"
)

// meets reports whether the scenario deploys what n names.
func (sc *Scenario) meets(n need) bool {
	switch n {
	case needRecovery:
		return sc.System.Recovery
	case needAdaptive:
		return sc.System.AdaptiveInter
	case needReliable:
		return sc.Network.Reliable
	}
	return true
}

// metricRegistry is the checker library's vocabulary: the names an
// envelope may bound. Order is fixed — it is the order metrics appear in
// verdicts, part of the byte-determinism contract.
var metricRegistry = []metricDef{
	{"grants", "", func(o *runOutcome) (float64, bool) {
		return float64(o.Grants), true
	}},
	{"events", "", func(o *runOutcome) (float64, bool) {
		return float64(o.Events), true
	}},
	{"virtual_ms", "", func(o *runOutcome) (float64, bool) {
		return float64(o.Elapsed) / float64(time.Millisecond), true
	}},
	{"mean_obtaining_ms", "", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().Mean, o.Grants > 0
	}},
	{"std_obtaining_ms", "", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().Std, o.Grants > 0
	}},
	{"p50_obtaining_ms", "", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().P50, o.Grants > 0
	}},
	{"p95_obtaining_ms", "", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().P95, o.Grants > 0
	}},
	{"p99_obtaining_ms", "", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().P99, o.Grants > 0
	}},
	{"max_obtaining_ms", "", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().Max, o.Grants > 0
	}},
	{"inter_msgs_per_cs", "", func(o *runOutcome) (float64, bool) {
		return perCS(float64(o.Counters.InterMessages), o), true
	}},
	{"intra_msgs_per_cs", "", func(o *runOutcome) (float64, bool) {
		return perCS(float64(o.Counters.IntraMessages), o), true
	}},
	{"total_msgs_per_cs", "", func(o *runOutcome) (float64, bool) {
		return perCS(float64(o.Counters.Messages), o), true
	}},
	{"crashes", "", func(o *runOutcome) (float64, bool) {
		return float64(o.Monitor.Crashes()), true
	}},
	{"crash_exits", needRecovery, func(o *runOutcome) (float64, bool) {
		return float64(o.Monitor.CrashExits()), true
	}},
	{"epochs", needRecovery, func(o *runOutcome) (float64, bool) {
		return float64(o.Monitor.Epochs()), o.sc.System.Recovery
	}},
	{"mean_recovery_ms", needRecovery, func(o *runOutcome) (float64, bool) {
		s, ok := msSummary(o.Monitor.RecoveryLatencies())
		return s.Mean, ok
	}},
	{"max_recovery_ms", needRecovery, func(o *runOutcome) (float64, bool) {
		s, ok := msSummary(o.Monitor.RecoveryLatencies())
		return s.Max, ok
	}},
	{"detector_share", needRecovery, func(o *runOutcome) (float64, bool) {
		if !o.sc.System.Recovery || o.Counters.Messages == 0 {
			return 0, false
		}
		return float64(recovery.DetectorMessages(o.Counters.ByKind)) / float64(o.Counters.Messages), true
	}},
	{"retransmits", needReliable, func(o *runOutcome) (float64, bool) {
		if o.Reliable == nil {
			return 0, false
		}
		return float64(o.Reliable.Stats().Retransmits), true
	}},
	{"given_up", needReliable, func(o *runOutcome) (float64, bool) {
		if o.Reliable == nil {
			return 0, false
		}
		return float64(o.Reliable.Stats().GivenUp), true
	}},
	{"switches", needAdaptive, func(o *runOutcome) (float64, bool) {
		return float64(o.Switches), o.sc.System.AdaptiveInter
	}},
	{"dropped", "", func(o *runOutcome) (float64, bool) {
		return float64(o.Counters.Dropped), true
	}},
	{"dropped_dead", "", func(o *runOutcome) (float64, bool) {
		return float64(o.Counters.DroppedDead), true
	}},
	// Registry order is append-only: the entries below postdate the ones
	// above and must stay after them.
	{"dropped_partition", "", func(o *runOutcome) (float64, bool) {
		return float64(o.Counters.DroppedPartition), true
	}},
	{"restarts", "", func(o *runOutcome) (float64, bool) {
		return float64(o.Monitor.Restarts()), true
	}},
	{"rejoins", needRecovery, func(o *runOutcome) (float64, bool) {
		return float64(o.Monitor.Rejoins()), o.sc.System.Recovery
	}},
	{"mean_rejoin_ms", needRecovery, func(o *runOutcome) (float64, bool) {
		s, ok := msSummary(o.Monitor.RejoinLatencies())
		return s.Mean, ok
	}},
	{"max_rejoin_ms", needRecovery, func(o *runOutcome) (float64, bool) {
		s, ok := msSummary(o.Monitor.RejoinLatencies())
		return s.Max, ok
	}},
	{"minority_freezes", needRecovery, func(o *runOutcome) (float64, bool) {
		if o.Recovery == nil {
			return 0, false
		}
		return float64(o.Recovery.Stats().MinorityFreezes), true
	}},
	{"regenerations", needRecovery, func(o *runOutcome) (float64, bool) {
		if o.Recovery == nil {
			return 0, false
		}
		return float64(o.Recovery.Stats().Regenerations), true
	}},
}

// perCS normalizes a counter by the number of critical sections entered.
func perCS(v float64, o *runOutcome) float64 {
	if o.Grants == 0 {
		return 0
	}
	return v / float64(o.Grants)
}

// metric looks name up in the registry; nil when it is unknown, which
// validation rejects at load time.
func metric(name string) *metricDef {
	for i := range metricRegistry {
		if metricRegistry[i].name == name {
			return &metricRegistry[i]
		}
	}
	return nil
}

// MetricNames returns the registry vocabulary in registry order.
func MetricNames() []string {
	out := make([]string, len(metricRegistry))
	for i, d := range metricRegistry {
		out[i] = d.name
	}
	return out
}

// measure extracts every defined metric in registry order.
func measure(o *runOutcome) []Metric {
	var out []Metric
	for _, d := range metricRegistry {
		if v, ok := d.extract(o); ok {
			out = append(out, Metric{Name: d.name, Value: v})
		}
	}
	return out
}

// msSummary summarizes the monitor's latency samples (crash to
// regeneration, restart to readmission) in ms; false when there are none.
func msSummary(lats []time.Duration) (stats.Summary, bool) {
	if len(lats) == 0 {
		return stats.Summary{}, false
	}
	acc := stats.Accumulator{}
	for _, d := range lats {
		acc.Push(float64(d) / float64(time.Millisecond))
	}
	return acc.Summarize(), true
}
