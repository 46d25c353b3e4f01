package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// evaluate is the checker library: it judges a run outcome against the
// scenario's expectation block, producing checks in a fixed order so the
// verdict is byte-deterministic.
func evaluate(o *runOutcome) Verdict {
	sc := o.sc
	v := Verdict{Scenario: sc.Name, Doc: sc.Doc, Seed: sc.Seed, Pass: true}
	add := func(name string, pass bool, detail string) {
		if !pass {
			v.Pass = false
		} else {
			detail = ""
		}
		v.Checks = append(v.Checks, Check{Name: name, Pass: pass, Detail: detail})
	}

	safety, liveness, quiescence := bucketViolations(o.Monitor.Violations())
	if o.Stall != nil {
		liveness = append([]string{o.Stall.Error()}, liveness...)
	}
	add("safety", len(safety) == 0, summarize(safety))
	add("liveness", len(liveness) == 0, summarize(liveness))
	if sc.Expect.Quiescent {
		add("quiescence", len(quiescence) == 0, summarize(quiescence))
	}

	checkCompletion(o, add)
	e := &sc.Expect
	if e.CrashExits >= 0 {
		got := int(o.Monitor.CrashExits())
		add("crash_exits", got == e.CrashExits,
			fmt.Sprintf("%d critical sections ended by a crash, want %d", got, e.CrashExits))
	}
	if e.MinEpochs >= 0 || e.MaxEpochs >= 0 {
		got := int(o.Monitor.Epochs())
		pass := (e.MinEpochs < 0 || got >= e.MinEpochs) && (e.MaxEpochs < 0 || got <= e.MaxEpochs)
		add("epochs", pass, fmt.Sprintf("%d regeneration epochs, want %s", got,
			rangeWant(e.MinEpochs, e.MaxEpochs)))
	}
	checkStandbys(o, add)
	checkFrozen(o, add)
	if e.MinSwitches >= 0 {
		add("switches", o.Switches >= int64(e.MinSwitches),
			fmt.Sprintf("%d committed adaptive switches, want at least %d", o.Switches, e.MinSwitches))
	}
	if e.MinRetransmits >= 0 || e.MaxGivenUp >= 0 {
		st := o.Reliable.Stats()
		var bad []string
		if e.MinRetransmits >= 0 && st.Retransmits < int64(e.MinRetransmits) {
			bad = append(bad, fmt.Sprintf("%d retransmits, want at least %d", st.Retransmits, e.MinRetransmits))
		}
		if e.MaxGivenUp >= 0 && st.GivenUp > int64(e.MaxGivenUp) {
			bad = append(bad, fmt.Sprintf("%d abandoned packets, want at most %d", st.GivenUp, e.MaxGivenUp))
		}
		add("reliable", len(bad) == 0, strings.Join(bad, "; "))
	}
	for _, env := range e.Envelopes {
		val, ok := metricValue(o, env.Metric)
		name := "envelope:" + env.Metric
		if !ok {
			add(name, false, "metric not produced by this run")
			continue
		}
		pass := (!env.HasMin || val >= env.Min) && (!env.HasMax || val <= env.Max)
		add(name, pass, fmt.Sprintf("measured %s, want %s",
			fmtF(val), envelopeWant(env)))
	}

	v.Metrics = measure(o)
	return v
}

// bucketViolations splits the monitor's violations by their message
// prefix. Anything unrecognized counts as a safety problem — the
// conservative bucket.
func bucketViolations(all []string) (safety, liveness, quiescence []string) {
	for _, msg := range all {
		switch {
		case strings.HasPrefix(msg, "liveness:"):
			liveness = append(liveness, msg)
		case strings.HasPrefix(msg, "quiescence:"):
			quiescence = append(quiescence, msg)
		default: // "safety:", "protocol:" and anything new
			safety = append(safety, msg)
		}
	}
	return safety, liveness, quiescence
}

// summarize renders a violation list as "first (and N more)".
func summarize(msgs []string) string {
	switch len(msgs) {
	case 0:
		return ""
	case 1:
		return msgs[0]
	default:
		return fmt.Sprintf("%s (and %d more)", msgs[0], len(msgs)-1)
	}
}

// checkCompletion evaluates the completion mode and the per-cluster
// completion list against the grant counts.
func checkCompletion(o *runOutcome, add func(string, bool, string)) {
	e := &o.sc.Expect
	want := o.sc.Workload.CSPerProcess
	// Walk apps in slice order (ascending ID) so failure details are
	// deterministic.
	incomplete := func(include func(cluster int, node int) bool) []string {
		var out []string
		for _, a := range o.Core.Apps {
			if !include(a.Cluster, int(a.ID)) {
				continue
			}
			if got := o.granted[a.ID]; got < want {
				out = append(out, fmt.Sprintf("process %d (cluster %d) completed %d/%d", a.ID, a.Cluster, got, want))
			}
		}
		return out
	}
	switch e.Complete {
	case CompleteAll:
		missing := incomplete(func(int, int) bool { return true })
		add("completion", len(missing) == 0, summarize(missing))
	case CompleteSurvivors:
		missing := incomplete(func(_ int, node int) bool { return !o.Crashed[node] })
		add("completion", len(missing) == 0, summarize(missing))
	}
	if len(e.ClusterComplete) > 0 {
		set := make(map[int]bool, len(e.ClusterComplete))
		for _, c := range e.ClusterComplete {
			set[c] = true
		}
		missing := incomplete(func(cluster int, node int) bool { return set[cluster] && !o.Crashed[node] })
		add("completion:clusters", len(missing) == 0, summarize(missing))
	}
}

// checkStandbys verifies the per-cluster takeover expectations.
func checkStandbys(o *runOutcome, add func(string, bool, string)) {
	e := &o.sc.Expect
	if len(e.StandbyActivated) == 0 && len(e.StandbyQuiet) == 0 {
		return
	}
	var bad []string
	for _, c := range e.StandbyActivated {
		if !o.Recovery.Standbys[c].Activated() {
			bad = append(bad, fmt.Sprintf("standby of cluster %d did not take over", c))
		}
	}
	for _, c := range e.StandbyQuiet {
		if o.Recovery.Standbys[c].Activated() {
			bad = append(bad, fmt.Sprintf("standby of cluster %d took over unexpectedly", c))
		}
	}
	add("standbys", len(bad) == 0, strings.Join(bad, "; "))
}

// checkFrozen verifies which recovery groups froze: every group named in
// frozen_groups must have a live member reporting frozen, and no other
// group may. The check materializes on every recovery run — an unexpected
// freeze is a finding even when the scenario names none.
func checkFrozen(o *runOutcome, add func(string, bool, string)) {
	if !o.sc.System.Recovery {
		return
	}
	want := make(map[string]bool, len(o.sc.Expect.FrozenGroups))
	for _, g := range o.sc.Expect.FrozenGroups {
		want[g] = true
	}
	// Members is a slice in deployment order, so collecting frozen group
	// names here (deduplicated, then sorted) never iterates a map.
	frozen := make(map[string]bool)
	var frozenNames []string
	for _, m := range o.Recovery.Members {
		if o.Crashed[int(m.ID())] {
			continue // a dead member's state is not evidence
		}
		if m.Stats().Frozen && !frozen[m.Group()] {
			frozen[m.Group()] = true
			frozenNames = append(frozenNames, m.Group())
		}
	}
	sort.Strings(frozenNames)
	var bad []string
	for _, g := range o.sc.Expect.FrozenGroups {
		if !frozen[g] {
			bad = append(bad, fmt.Sprintf("group %q did not freeze", g))
		}
	}
	for _, g := range frozenNames {
		if !want[g] {
			bad = append(bad, fmt.Sprintf("group %q froze unexpectedly", g))
		}
	}
	add("frozen", len(bad) == 0, strings.Join(bad, "; "))
}

// rangeWant renders a [min, max] expectation where either side may be
// unchecked (-1).
func rangeWant(min, max int) string {
	switch {
	case min >= 0 && max >= 0:
		return fmt.Sprintf("[%d, %d]", min, max)
	case min >= 0:
		return fmt.Sprintf("at least %d", min)
	default:
		return fmt.Sprintf("at most %d", max)
	}
}

// envelopeWant renders an envelope's bound.
func envelopeWant(env Envelope) string {
	switch {
	case env.HasMin && env.HasMax:
		return fmt.Sprintf("[%s, %s]", fmtF(env.Min), fmtF(env.Max))
	case env.HasMin:
		return "at least " + fmtF(env.Min)
	default:
		return "at most " + fmtF(env.Max)
	}
}

// fmtF formats a float deterministically and compactly.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
