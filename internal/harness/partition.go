package harness

import (
	"fmt"
	"strings"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/faults"
	"gridmutex/internal/run"
)

// partitionParams tunes the network-partition experiment, which runs
// naimi-naimi, on top of a Scale.
type partitionParams struct {
	// Durations is the swept cut-window length axis: each repetition
	// isolates one seeded cluster for this long, then heals.
	Durations []time.Duration
	// Period is the failure-detector heartbeat period; 0 means twice the
	// workload's alpha.
	Period time.Duration
}

// runPartition sweeps the cut-window duration across the scale's ρ axis:
// one point per (cut duration, ρ), each with its Period, Cut,
// DroppedPartition, MinorityFreezes, Regenerations and Epochs set. Every
// repetition cuts one seeded cluster off the grid for the window, heals,
// and drives the workload to full completion, so Grants doubles as the
// completion check's denominator: the minority side freezes (no spurious
// token regeneration on the cut-off side), the majority regenerates and
// keeps granting, and after the heal the frozen side rejoins through a
// resync epoch and drains its queued requests.
func runPartition(params partitionParams, scale Scale, progress func(string)) (*Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	if len(params.Durations) == 0 || len(scale.Rhos) == 0 {
		return nil, fmt.Errorf("harness: a partition sweep needs at least one cut duration and one rho")
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
	return sweep(nil, scale, partitionCells(params, scale), progress, func(p *Point) string {
		return fmt.Sprintf("cut=%6s rho=%6.0f  obtain=%8.2fms  dropped=%6d  freezes=%4d",
			p.Cut, p.Rho, p.Obtaining.Mean, p.DroppedPartition, p.MinorityFreezes)
	})
}

// partitionSweep derives the default partition experiment from a figure
// scale: two ρ values spanning the saturated and sparse regimes, and a
// cut-duration axis in multiples of the inter detector timeout — the
// shortest window the recovery layer can actually see (shorter cuts drop
// messages without any member suspecting anything; runPartition rejects
// them). The error is the scale's: no grid can be built from it.
func partitionSweep(scale Scale) (partitionParams, Scale, error) {
	n := float64(scale.N())
	scale.Rhos = []float64{n / 2, 4 * n}
	params := partitionParams{Period: 2 * scale.Alpha}
	timeout, err := interTimeout(params.Period, scale)
	if err != nil {
		return partitionParams{}, scale, err
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

// partitionCells lists the partition cells, one per (cut duration, ρ): the
// crash-tolerant deployment at the params' heartbeat, and one seeded
// cluster cut off at a seeded instant within the run's opening stretch and
// healed after the duration.
func partitionCells(params partitionParams, scale Scale) []cell {
	horizon := max(scale.Alpha*time.Duration(scale.CSPerProcess), 4*params.Period)
	return faultCells(core.Spec{Intra: "naimi", Inter: "naimi"}, scale, params.Durations, func(d time.Duration, c *cell) {
		c.sys.Heartbeat, c.at.Period, c.at.Cut = params.Period, params.Period, d
		c.fault = func(spec *run.Spec, seed int64) {
			sides := make([][]int, spec.Grid.NumClusters())
			for i := range sides {
				sides[i] = spec.Grid.NodesIn(i)
			}
			spec.Faults.Schedule = faults.PartitionPulse(seed, sides, horizon, d)
		}
	})
}

// partitionTable renders the partition experiment: obtaining-time
// inflation and degradation bookkeeping per (cut duration, ρ).
func (r *Result) partitionTable(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — graceful degradation under a cluster partition window\n", title)
	fmt.Fprintf(&b, "N = %d application processes (+2 recovery nodes per cluster), alpha = %v, heartbeat %v, %d CS/process, %d repetitions\n",
		r.Scale.N(), r.Scale.Alpha, r.Points[0].Period, r.Scale.CSPerProcess, r.Scale.Repetitions)
	fmt.Fprintf(&b, "%10s %8s %12s %12s %10s %10s %8s %8s %10s\n",
		"cut", "rho", "obtain(ms)", "obtain-max", "dropped", "freezes", "regens", "epochs", "grants")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10s %8.0f %12.3f %12.3f %10d %10d %8d %8d %10d\n",
			p.Cut, p.Rho, p.Obtaining.Mean, p.Obtaining.Max,
			p.DroppedPartition, p.MinorityFreezes, p.Regenerations, p.Epochs, p.Grants)
	}
	return b.String()
}
