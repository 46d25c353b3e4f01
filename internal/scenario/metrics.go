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

// metricDef is one entry of the registry: an extractor returning the
// value and whether the run produced it (a recovery metric is undefined
// on a plain run, a reliable metric on an unwrapped fabric).
type metricDef struct {
	name    string
	extract func(o *runOutcome) (float64, bool)
}

// metricRegistry is the checker library's vocabulary: the names an
// envelope may bound. Order is fixed — it is the order metrics appear in
// verdicts, part of the byte-determinism contract.
var metricRegistry = []metricDef{
	{"grants", func(o *runOutcome) (float64, bool) {
		return float64(o.Grants), true
	}},
	{"events", func(o *runOutcome) (float64, bool) {
		return float64(o.Events), true
	}},
	{"virtual_ms", func(o *runOutcome) (float64, bool) {
		return float64(o.Elapsed) / float64(time.Millisecond), true
	}},
	{"mean_obtaining_ms", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().Mean, o.Grants > 0
	}},
	{"std_obtaining_ms", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().Std, o.Grants > 0
	}},
	{"p50_obtaining_ms", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().P50, o.Grants > 0
	}},
	{"p95_obtaining_ms", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().P95, o.Grants > 0
	}},
	{"p99_obtaining_ms", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().P99, o.Grants > 0
	}},
	{"max_obtaining_ms", func(o *runOutcome) (float64, bool) {
		return o.obtain.Summarize().Max, o.Grants > 0
	}},
	{"inter_msgs_per_cs", func(o *runOutcome) (float64, bool) {
		return perCS(float64(o.Counters.InterMessages), o), true
	}},
	{"intra_msgs_per_cs", func(o *runOutcome) (float64, bool) {
		return perCS(float64(o.Counters.IntraMessages), o), true
	}},
	{"total_msgs_per_cs", func(o *runOutcome) (float64, bool) {
		return perCS(float64(o.Counters.Messages), o), true
	}},
	{"inter_bytes_per_cs", func(o *runOutcome) (float64, bool) {
		return perCS(float64(o.Counters.InterBytes), o), true
	}},
	{"crashes", func(o *runOutcome) (float64, bool) {
		return float64(o.Monitor.Crashes()), true
	}},
	{"crash_exits", func(o *runOutcome) (float64, bool) {
		return float64(o.Monitor.CrashExits()), true
	}},
	{"epochs", func(o *runOutcome) (float64, bool) {
		return float64(o.Monitor.Epochs()), o.sc.System.Recovery
	}},
	{"mean_recovery_ms", func(o *runOutcome) (float64, bool) {
		s, ok := msSummary(o.Monitor.RecoveryLatencies())
		return s.Mean, ok
	}},
	{"max_recovery_ms", func(o *runOutcome) (float64, bool) {
		s, ok := msSummary(o.Monitor.RecoveryLatencies())
		return s.Max, ok
	}},
	{"detector_share", func(o *runOutcome) (float64, bool) {
		if !o.sc.System.Recovery || o.Counters.Messages == 0 {
			return 0, false
		}
		return float64(recovery.DetectorMessages(o.Counters.ByKind)) / float64(o.Counters.Messages), true
	}},
	{"retransmits", func(o *runOutcome) (float64, bool) {
		if o.Reliable == nil {
			return 0, false
		}
		return float64(o.Reliable.Stats().Retransmits), true
	}},
	{"given_up", func(o *runOutcome) (float64, bool) {
		if o.Reliable == nil {
			return 0, false
		}
		return float64(o.Reliable.Stats().GivenUp), true
	}},
	{"switches", func(o *runOutcome) (float64, bool) {
		return float64(o.Switches), o.sc.System.AdaptiveInter
	}},
	{"dropped", func(o *runOutcome) (float64, bool) {
		return float64(o.Counters.Dropped), true
	}},
	{"dropped_dead", func(o *runOutcome) (float64, bool) {
		return float64(o.Counters.DroppedDead), true
	}},
	// Registry order is append-only: the entries below postdate the ones
	// above and must stay after them.
	{"dropped_partition", func(o *runOutcome) (float64, bool) {
		return float64(o.Counters.DroppedPartition), true
	}},
	{"restarts", func(o *runOutcome) (float64, bool) {
		return float64(o.Monitor.Restarts()), true
	}},
	{"rejoins", func(o *runOutcome) (float64, bool) {
		return float64(o.Monitor.Rejoins()), o.sc.System.Recovery
	}},
	{"mean_rejoin_ms", func(o *runOutcome) (float64, bool) {
		s, ok := msSummary(o.Monitor.RejoinLatencies())
		return s.Mean, ok
	}},
	{"max_rejoin_ms", func(o *runOutcome) (float64, bool) {
		s, ok := msSummary(o.Monitor.RejoinLatencies())
		return s.Max, ok
	}},
	{"minority_freezes", func(o *runOutcome) (float64, bool) {
		if o.Recovery == nil {
			return 0, false
		}
		return float64(o.Recovery.Stats().MinorityFreezes), true
	}},
	{"regenerations", func(o *runOutcome) (float64, bool) {
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

// KnownMetric reports whether name is in the registry — validation
// rejects envelopes over unknown names at load time.
func KnownMetric(name string) bool {
	for _, d := range metricRegistry {
		if d.name == name {
			return true
		}
	}
	return false
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

// metricValue resolves one named metric against an outcome.
func metricValue(o *runOutcome, name string) (float64, bool) {
	for _, d := range metricRegistry {
		if d.name == name {
			return d.extract(o)
		}
	}
	return 0, false
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
