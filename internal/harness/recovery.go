package harness

import (
	"fmt"
	"strings"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/faults"
	"gridmutex/internal/recovery"
	"gridmutex/internal/run"
	"gridmutex/internal/stats"
	"gridmutex/internal/workload"
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

// RecoveryPoint is the aggregate of one (period, ρ) cell: how fast the
// composition regenerates the token after a deterministic worst-case
// crash, and what the failure detector costs in messages.
type RecoveryPoint struct {
	Period time.Duration
	Rho    float64
	// RecoveryLatency aggregates crash-to-first-regeneration delays in
	// milliseconds across repetitions.
	RecoveryLatency stats.Summary
	// Epochs counts regeneration epochs across repetitions.
	Epochs int64
	// Obtaining aggregates the obtaining time (ms) of the surviving
	// grants, for the latency-vs-overhead trade-off.
	Obtaining stats.Summary
	// DetectorMsgsPerSec is the failure-detector message rate (heartbeats,
	// probes, acks and epoch announcements) per second of virtual time —
	// the standing overhead of crash tolerance.
	DetectorMsgsPerSec float64
	// DetectorShare is the detector's fraction of all sent messages.
	DetectorShare float64
	// Grants counts critical sections entered across repetitions.
	Grants int64
	// Events counts the DES events processed and Queue sums the event
	// queue's counted work across repetitions (HighWater is the deepest of
	// them): what the cell costs to simulate. Neither enters Table.
	Events int64
	Queue  des.QueueStats
}

// RecoveryResult is the crash-recovery experiment: one point per
// (heartbeat period, ρ).
type RecoveryResult struct {
	Params RecoveryParams
	Scale  Scale
	Points []RecoveryPoint
}

// recPartial is what one repetition of a recovery-deployment experiment
// (crash recovery or partition) contributes to its cell: accumulators and
// scalar counts, never raw records: each grant is folded in as it happens,
// so a repetition holds bounded state however many grants it makes.
type recPartial struct {
	latency, obtain          stats.Accumulator
	epochs, grants           int64
	detectorMsgs, totalMsgs  int64
	dropped, freezes, regens int64
	virtual                  time.Duration
	events                   int64
	queue                    des.QueueStats
	wall                     time.Duration
}

// newRecPartial is the empty digest of one repetition, or of a cell's sum.
func newRecPartial() recPartial {
	return recPartial{latency: stats.Accumulator{Sketch: true}, obtain: stats.Accumulator{Sketch: true}}
}

// grant folds one grant's obtaining time into p: the run's sink
// (run.Spec.OnGrant).
func (p *recPartial) grant(r workload.Record) {
	p.obtain.Push(float64(r.Obtaining()) / float64(time.Millisecond))
}

// finish folds the rest of the repetition's outcome into p.
func (p *recPartial) finish(out run.Outcome) {
	members := out.Recovery.Stats()
	p.epochs = out.Monitor.Epochs()
	p.grants = int64(out.Grants)
	p.detectorMsgs = recovery.DetectorMessages(out.Counters.ByKind)
	p.totalMsgs = out.Counters.Messages
	p.dropped = out.Counters.DroppedPartition
	p.freezes = members.MinorityFreezes
	p.regens = members.Regenerations
	p.virtual = out.Elapsed
	p.events = int64(out.Events)
	p.queue = out.Queue
	for _, d := range out.Monitor.RecoveryLatencies() {
		p.latency.Push(float64(d) / float64(time.Millisecond))
	}
}

// runRecoveryRep drives one repetition, digesting its grants as they
// happen.
func runRecoveryRep(spec run.Spec) (recPartial, error) {
	p := newRecPartial()
	spec.OnGrant = p.grant
	out, err := drive(spec)
	if err != nil {
		return recPartial{}, err
	}
	p.finish(out)
	return p, nil
}

// add folds another repetition of the same cell into p.
func (p *recPartial) add(o *recPartial) {
	p.latency.Merge(&o.latency)
	p.obtain.Merge(&o.obtain)
	p.epochs += o.epochs
	p.grants += o.grants
	p.detectorMsgs += o.detectorMsgs
	p.totalMsgs += o.totalMsgs
	p.dropped += o.dropped
	p.freezes += o.freezes
	p.regens += o.regens
	p.virtual += o.virtual
	p.events += o.events
	p.queue.Pushes += o.queue.Pushes
	p.queue.Moves += o.queue.Moves
	p.queue.Scatters += o.queue.Scatters
	p.queue.Closures += o.queue.Closures
	p.queue.HighWater = max(p.queue.HighWater, o.queue.HighWater)
	p.wall += o.wall
}

// detectorMsgsPerSec is the failure-detector message rate per second of
// virtual time.
func (p *recPartial) detectorMsgsPerSec() float64 {
	if sec := p.virtual.Seconds(); sec > 0 {
		return float64(p.detectorMsgs) / sec
	}
	return 0
}

// recoveryPoint renders the summed repetitions of the (period, ρ) cell.
func (p *recPartial) recoveryPoint(period time.Duration, rho float64) RecoveryPoint {
	pt := RecoveryPoint{
		Period: period, Rho: rho,
		RecoveryLatency:    p.latency.Summarize(),
		Epochs:             p.epochs,
		Obtaining:          p.obtain.Summarize(),
		DetectorMsgsPerSec: p.detectorMsgsPerSec(),
		Grants:             p.grants,
		Events:             p.events,
		Queue:              p.queue,
	}
	if p.totalMsgs > 0 {
		pt.DetectorShare = float64(p.detectorMsgs) / float64(p.totalMsgs)
	}
	return pt
}

// sweepRecovery runs a recovery-deployment experiment: one cell per (axis
// value, ρ), Repetitions seeded runs per cell of the Spec specOf describes,
// and each cell's repetitions summed in repetition order and handed to emit
// in cell order. The unit of fan-out is one (axis value, ρ, repetition) shard:
// Scale.Workers bounds how many run concurrently, exactly like Run, and
// the aggregate is byte-identical for every Workers setting.
func sweepRecovery(axisName string, axis []time.Duration, scale Scale,
	specOf func(v time.Duration, rho float64, seed int64) (run.Spec, error),
	emit func(v time.Duration, rho float64, sum *recPartial)) error {
	type key struct {
		v   time.Duration
		rho float64
	}
	var cells []key
	for _, v := range axis {
		for _, rho := range scale.Rhos {
			cells = append(cells, key{v, rho})
		}
	}
	return runShards(len(cells), func(int) int { return scale.Repetitions }, scale.Workers, func(ci, rep int) (recPartial, error) {
		c := cells[ci]
		start := wallNow()
		spec, err := specOf(c.v, c.rho, deriveSeed(scale.BaseSeed^int64(c.v), c.rho, rep))
		var p recPartial
		if err == nil {
			p, err = runRecoveryRep(spec)
		}
		if err != nil {
			return recPartial{}, fmt.Errorf("harness: %s=%v rho=%g rep=%d: %w", axisName, c.v, c.rho, rep, err)
		}
		p.wall = wallNow().Sub(start)
		return p, nil
	}, func(ci int, partials []recPartial) error {
		sum := newRecPartial()
		for i := range partials {
			sum.add(&partials[i])
		}
		emit(cells[ci].v, cells[ci].rho, &sum)
		return nil
	})
}

// RunRecovery sweeps the heartbeat period across the scale's ρ axis. Every
// repetition injects one deterministic crash — drawn by faults.OnCSEntry
// from the repetition's seed — of a token-holding application process (or,
// with CrashCoordinator, of the primary whose cluster's application enters
// the CS), then measures the crash-to-regeneration latency and the
// detector's message overhead.
func RunRecovery(params RecoveryParams, scale Scale, progress func(string)) (*RecoveryResult, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	if len(params.Periods) == 0 {
		return nil, fmt.Errorf("harness: RunRecovery needs at least one heartbeat period")
	}
	if params.Spec == (core.Spec{}) {
		params.Spec = core.Spec{Intra: "naimi", Inter: "naimi"}
	}
	res := &RecoveryResult{Params: params, Scale: scale}

	err := sweepRecovery("recovery period", params.Periods, scale, func(period time.Duration, rho float64, seed int64) (run.Spec, error) {
		return recoverySpec(params, scale, period, rho, seed)
	}, func(period time.Duration, rho float64, sum *recPartial) {
		p := sum.recoveryPoint(period, rho)
		res.Points = append(res.Points, p)
		if progress != nil {
			// Mev/s is machine-dependent, so it stays out of the point.
			progress(fmt.Sprintf("period=%6s rho=%6.0f  recover=%8.2fms  detector=%7.1f msg/s  events=%-9d %6.2f Mev/s  %5.2f key moves/event, high-water %d, %.4f closures/grant",
				period, rho, p.RecoveryLatency.Mean, p.DetectorMsgsPerSec,
				p.Events, float64(p.Events)/1e6/max(sum.wall.Seconds(), 1e-9), p.Queue.MovesPerEvent(), p.Queue.HighWater,
				float64(p.Queue.Closures)/float64(max(p.Grants, 1))))
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RecoverySweep derives the default crash-recovery experiment from a
// figure scale: a heartbeat-period axis bracketing the critical-section
// duration and two ρ values spanning the saturated and sparse regimes.
func RecoverySweep(scale Scale) (RecoveryParams, Scale) {
	n := float64(scale.N())
	scale.Rhos = []float64{n / 2, 4 * n}
	return RecoveryParams{Periods: []time.Duration{scale.Alpha / 2, 2 * scale.Alpha, 8 * scale.Alpha}}, scale
}

// recoverySpec describes one seeded run: the crash-tolerant deployment, one
// crash-on-CS-entry fault, the workload driven to completion of every
// survivor under the recovery-aware monitor.
func recoverySpec(params RecoveryParams, scale Scale, period time.Duration, rho float64, seed int64) (run.Spec, error) {
	sys := run.System{Intra: params.Spec.Intra, Inter: params.Spec.Inter, Heartbeat: period}
	spec, err := scale.spec(sys, rho, seed)
	if err != nil {
		return run.Spec{}, err
	}
	// Draw the victim and the trigger ordinal from the run seed. Candidate
	// victims are the application nodes; under CrashCoordinator the crash
	// is redirected to the victim's primary at the same trigger instant —
	// the moment the primary's cluster holds the global CS right.
	trig := faults.OnCSEntry(seed, sys.AppNodes(spec.Grid), scale.CSPerProcess)
	spec.Faults.HolderKills = []run.HolderKill{{
		Victim: trig.Victim, Entry: trig.Entry, Coordinator: params.CrashCoordinator,
	}}
	return spec, nil
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
