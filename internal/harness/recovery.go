package harness

import (
	"fmt"
	"strings"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/faults"
	"gridmutex/internal/run"
)

// RecoveryParams tunes the crash-recovery experiment on top of a Scale.
type RecoveryParams struct {
	// Periods is the swept heartbeat-period axis.
	Periods []time.Duration
	// Spec is the composition under test; zero value means naimi-naimi.
	Spec core.Spec
	// CrashCoordinator targets the crash at coordinator (primary) nodes
	// instead of application token holders. Either way the victim is the
	// worst case for its class: it crashes the instant the cluster's
	// activity touches it (an application entering its CS, or the primary
	// granting one).
	CrashCoordinator bool
}

// RecoveryResult is the crash-recovery experiment: one point per
// (heartbeat period, ρ), each with its Period, RecoveryLatency, Epochs and
// detector overhead set.
type RecoveryResult struct {
	Params RecoveryParams
	*Result
}

// RunRecovery sweeps the heartbeat period across the scale's ρ axis. Every
// repetition injects one deterministic crash — drawn by faults.OnCSEntry
// from the repetition's seed — of a token-holding application process (or,
// with CrashCoordinator, of the primary whose cluster's application enters
// the CS), then measures the crash-to-regeneration latency and the
// detector's message overhead.
func RunRecovery(params RecoveryParams, scale Scale, progress func(string)) (*RecoveryResult, error) {
	if len(params.Periods) == 0 {
		return nil, fmt.Errorf("harness: RunRecovery needs at least one heartbeat period")
	}
	if params.Spec == (core.Spec{}) {
		params.Spec = core.Spec{Intra: "naimi", Inter: "naimi"}
	}
	res, err := sweep(nil, scale, recoveryCells(params, scale), progress, func(p *Point) string {
		return fmt.Sprintf("period=%6s rho=%6.0f  recover=%8.2fms  detector=%7.1f msg/s",
			p.Period, p.Rho, p.RecoveryLatency.Mean, p.DetectorMsgsPerSec)
	})
	if err != nil {
		return nil, err
	}
	return &RecoveryResult{Params: params, Result: res}, nil
}

// recoverySweep derives the default crash-recovery experiment from a
// figure scale: a heartbeat-period axis bracketing the critical-section
// duration and two ρ values spanning the saturated and sparse regimes.
func recoverySweep(scale Scale) (RecoveryParams, Scale) {
	n := float64(scale.N())
	scale.Rhos = []float64{n / 2, 4 * n}
	return RecoveryParams{Periods: []time.Duration{scale.Alpha / 2, 2 * scale.Alpha, 8 * scale.Alpha}}, scale
}

// recoveryCells lists the crash-recovery cells, one per (period, ρ): the
// crash-tolerant deployment with the period as its heartbeat, and one
// crash-on-CS-entry fault drawn from each repetition's seed.
func recoveryCells(params RecoveryParams, scale Scale) []cell {
	return faultCells(params.Spec, scale, params.Periods, func(period time.Duration, c *cell) {
		c.sys.Heartbeat, c.at.Period = period, period
		// Candidate victims are the application nodes; under
		// CrashCoordinator the crash is redirected to the victim's primary
		// at the same trigger instant — the moment the primary's cluster
		// holds the global CS right.
		c.fault = func(spec *run.Spec, seed int64) {
			trig := faults.OnCSEntry(seed, spec.System.AppNodes(spec.Grid), scale.CSPerProcess)
			spec.Faults.HolderKills = []run.HolderKill{{
				Victim: trig.Victim, Entry: trig.Entry, Coordinator: params.CrashCoordinator,
			}}
		}
	})
}

// faultCells lists a fault sweep's cells: one per (axis value, ρ), axis
// value major, each running the crash-tolerant deployment of spec and
// seeded by its axis value. set fills in what the axis value changes: the
// heartbeat, the Point's axis field and the fault.
func faultCells(spec core.Spec, scale Scale, axis []time.Duration, set func(v time.Duration, c *cell)) []cell {
	cells := make([]cell, 0, len(axis)*len(scale.Rhos))
	for _, v := range axis {
		for _, rho := range scale.Rhos {
			c := cell{sys: run.System{Intra: spec.Intra, Inter: spec.Inter}, scale: scale, axis: v,
				at: Point{System: Composed(spec.Intra, spec.Inter).Name, Rho: rho}}
			set(v, &c)
			cells = append(cells, c)
		}
	}
	return cells
}

// Table renders the crash-recovery experiment: recovery latency and
// detector overhead per (heartbeat period, ρ).
func (r *RecoveryResult) Table(title string) string {
	var b strings.Builder
	target := "application token holder"
	if r.Params.CrashCoordinator {
		target = "coordinator of the active cluster"
	}
	fmt.Fprintf(&b, "%s — token regeneration after a crash of the %s\n", title, target)
	fmt.Fprintf(&b, "N = %d application processes (+2 recovery nodes per cluster), alpha = %v, %d CS/process, %d repetitions\n",
		r.Scale.N(), r.Scale.Alpha, r.Scale.CSPerProcess, r.Scale.Repetitions)
	fmt.Fprintf(&b, "%10s %8s %14s %14s %12s %12s %10s\n",
		"period", "rho", "recover(ms)", "recover-max", "detect/s", "det-share", "epochs")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10s %8.0f %14.3f %14.3f %12.1f %12.4f %10d\n",
			p.Period, p.Rho, p.RecoveryLatency.Mean, p.RecoveryLatency.Max,
			p.DetectorMsgsPerSec, p.DetectorShare, p.Epochs)
	}
	return b.String()
}
