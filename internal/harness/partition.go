package harness

import (
	"fmt"
	"strings"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/faults"
	"gridmutex/internal/run"
	"gridmutex/internal/stats"
)

// PartitionParams tunes the network-partition experiment on top of a
// Scale.
type PartitionParams struct {
	// Durations is the swept cut-window length axis: each repetition
	// isolates one seeded cluster for this long, then heals.
	Durations []time.Duration
	// Spec is the composition under test; zero value means naimi-naimi.
	Spec core.Spec
	// Period is the failure-detector heartbeat period; 0 means twice the
	// workload's alpha.
	Period time.Duration
}

// PartitionPoint is the aggregate of one (duration, ρ) cell: what a
// partition window of that length costs the grid — obtaining-time
// inflation, messages killed on the cut, minority freezes entered, and
// the token regenerations the majority performed while the cut-off side
// stayed frozen.
type PartitionPoint struct {
	Duration time.Duration
	Rho      float64
	// Obtaining aggregates the obtaining time (ms) of all grants,
	// including the post-heal drain of requests frozen during the cut.
	Obtaining stats.Summary
	// DroppedPartition counts messages discarded at delivery time because
	// their link crossed the active cut, across repetitions.
	DroppedPartition int64
	// MinorityFreezes counts entries into the minority-frozen state
	// across all recovery members and repetitions.
	MinorityFreezes int64
	// Regenerations counts epochs announced with a regenerated token —
	// the majority reclaiming a token the cut carried away.
	Regenerations int64
	// Epochs counts membership epochs across repetitions.
	Epochs int64
	// Grants counts critical sections entered across repetitions; the
	// workload completes in full, so this doubles as the completion
	// check's denominator.
	Grants int64
	// DetectorMsgsPerSec is the failure-detector message rate per second
	// of virtual time.
	DetectorMsgsPerSec float64
}

// PartitionResult is the partition-tolerance experiment: one point per
// (cut duration, ρ).
type PartitionResult struct {
	Params PartitionParams
	Scale  Scale
	Points []PartitionPoint
}

// RunPartition sweeps the cut-window duration across the scale's ρ axis.
// Every repetition cuts one seeded cluster off the grid for the window,
// heals, and drives the workload to full completion: the minority side
// freezes (no spurious token regeneration on the cut-off side), the
// majority regenerates and keeps granting, and after the heal the frozen
// side rejoins through a resync epoch and drains its queued requests.
func RunPartition(params PartitionParams, scale Scale, progress func(string)) (*PartitionResult, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	if len(params.Durations) == 0 {
		return nil, fmt.Errorf("harness: RunPartition needs at least one cut duration")
	}
	if params.Spec == (core.Spec{}) {
		params.Spec = core.Spec{Intra: "naimi", Inter: "naimi"}
	}
	if params.Period <= 0 {
		params.Period = 2 * scale.Alpha
	}
	// A cut shorter than the failure-detection timeout is invisible to the
	// recovery layer: the messages it kills are lost without any member
	// suspecting anything, so a token that died on the cut is never
	// regenerated and the run stalls. The experiment therefore only admits
	// windows long enough to be detected with margin.
	timeout, err := interTimeout(params.Period, scale)
	if err != nil {
		return nil, err
	}
	for _, d := range params.Durations {
		if d < 2*timeout {
			return nil, fmt.Errorf("harness: cut duration %v is below twice the inter detector timeout (%v): an undetected cut loses messages without triggering recovery", d, timeout)
		}
	}
	res := &PartitionResult{Params: params, Scale: scale}

	err = sweepRecovery("partition duration", params.Durations, scale, func(d time.Duration, rho float64, seed int64) (run.Outcome, error) {
		return runPartitionOnce(params, scale, d, rho, seed)
	}, func(d time.Duration, rho float64, sum *recPartial) {
		p := PartitionPoint{
			Duration: d, Rho: rho,
			Obtaining:          sum.obtain.Summarize(),
			DroppedPartition:   sum.dropped,
			MinorityFreezes:    sum.freezes,
			Regenerations:      sum.regens,
			Epochs:             sum.epochs,
			Grants:             sum.grants,
			DetectorMsgsPerSec: sum.detectorMsgsPerSec(),
		}
		res.Points = append(res.Points, p)
		if progress != nil {
			progress(fmt.Sprintf("cut=%6s rho=%6.0f  obtain=%8.2fms  dropped=%6d  freezes=%4d",
				d, rho, p.Obtaining.Mean, p.DroppedPartition, p.MinorityFreezes))
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// PartitionSweep derives the default partition experiment from a figure
// scale: two ρ values spanning the saturated and sparse regimes, and a
// cut-duration axis in multiples of the inter detector timeout — the
// shortest window the recovery layer can actually see (shorter cuts drop
// messages without any member suspecting anything; RunPartition rejects
// them). The error is the scale's: no grid can be built from it.
func PartitionSweep(scale Scale) (PartitionParams, Scale, error) {
	n := float64(scale.N())
	scale.Rhos = []float64{n / 2, 4 * n}
	params := PartitionParams{Period: 2 * scale.Alpha}
	timeout, err := interTimeout(params.Period, scale)
	if err != nil {
		return PartitionParams{}, scale, err
	}
	params.Durations = []time.Duration{2 * timeout, 4 * timeout, 8 * timeout}
	return params, scale, nil
}

// interTimeout returns the inter group's detector timeout at a heartbeat
// period on the scale's grid — the unit of the cut-duration axis.
func interTimeout(period time.Duration, scale Scale) (time.Duration, error) {
	g, err := grid(run.System{Heartbeat: period}, scale)
	if err != nil {
		return 0, err
	}
	_, inter := run.DetectorTimeouts(g, period)
	return inter.Timeout, nil
}

// runPartitionOnce executes one seeded run: the crash-tolerant
// deployment, one seeded cluster cut off for the window and healed, the
// full workload driven to completion under the recovery-aware monitor.
func runPartitionOnce(params PartitionParams, scale Scale, duration time.Duration, rho float64, seed int64) (run.Outcome, error) {
	sys := run.System{Intra: params.Spec.Intra, Inter: params.Spec.Inter, Heartbeat: params.Period}
	spec, err := scale.spec(sys, rho, seed)
	if err != nil {
		return run.Outcome{}, err
	}
	// One seeded window: a seeded cluster is cut off at a seeded instant
	// within the run's opening stretch and healed after the duration.
	sides := make([][]int, spec.Grid.NumClusters())
	for c := range sides {
		sides[c] = spec.Grid.NodesIn(c)
	}
	horizon := scale.Alpha * time.Duration(scale.CSPerProcess)
	if horizon < 4*params.Period {
		horizon = 4 * params.Period
	}
	spec.Faults.Schedule = faults.PartitionPulse(seed, sides, horizon, duration)
	return drive(spec)
}

// Table renders the partition experiment: obtaining-time inflation and
// degradation bookkeeping per (cut duration, ρ).
func (r *PartitionResult) Table(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — graceful degradation under a cluster partition window\n", title)
	fmt.Fprintf(&b, "N = %d application processes (+2 recovery nodes per cluster), alpha = %v, heartbeat %v, %d CS/process, %d repetitions\n",
		r.Scale.N(), r.Scale.Alpha, r.Params.Period, r.Scale.CSPerProcess, r.Scale.Repetitions)
	fmt.Fprintf(&b, "%10s %8s %12s %12s %10s %10s %8s %8s %10s\n",
		"cut", "rho", "obtain(ms)", "obtain-max", "dropped", "freezes", "regens", "epochs", "grants")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10s %8.0f %12.3f %12.3f %10d %10d %8d %8d %10d\n",
			p.Duration, p.Rho, p.Obtaining.Mean, p.Obtaining.Max,
			p.DroppedPartition, p.MinorityFreezes, p.Regenerations, p.Epochs, p.Grants)
	}
	return b.String()
}
