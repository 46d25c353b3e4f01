// Package harness runs the paper's experiments: it assembles a deployment
// (a composition or a flat original algorithm) on the simulated grid,
// drives the parameterized workload through it for several repetitions and
// aggregates the three metrics of section 4.1 — obtaining time, number of
// inter-cluster sent messages, and the standard deviation of the obtaining
// time.
package harness

import (
	"fmt"
	"math"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/fleet"
	"gridmutex/internal/reliable"
	"gridmutex/internal/rng"
	"gridmutex/internal/run"
	"gridmutex/internal/simnet"
	"gridmutex/internal/stats"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

// System identifies one curve: an "Intra-Inter" composition, a flat
// original algorithm, or a composition whose inter algorithm adapts at
// runtime.
type System struct {
	// Name labels the curve, e.g. "Naimi-Martin" or "Naimi (original)".
	Name string
	// Flat names the original algorithm when non-empty; Spec is then
	// ignored.
	Flat string
	// Spec is the composition to run when Flat is empty. With
	// AdaptiveInter set, Spec.Inter is only the initial algorithm.
	Spec core.Spec
	// AdaptiveInter wraps the inter level in the adaptive switching
	// protocol driven by a GapPolicy.
	AdaptiveInter bool
	// LocalBias configures the Bertier-style local-first policy: up to
	// this many extra local serving rounds before each inter handoff.
	LocalBias int
}

// RunSystem is the system as the run kernel takes it: Spec is ignored under
// Flat; any other contradiction reaches run.System.Validate and is an error.
func (s System) RunSystem() run.System {
	sys := run.System{Flat: s.Flat, AdaptiveInter: s.AdaptiveInter, LocalBias: s.LocalBias}
	if s.Flat == "" {
		sys.Intra, sys.Inter = s.Spec.Intra, s.Spec.Inter
	}
	return sys
}

// Composed returns the System for an intra-inter pair, labeled in the
// paper's notation.
func Composed(intra, inter string) System {
	return System{Name: title(intra) + "-" + title(inter), Spec: core.Spec{Intra: intra, Inter: inter}}
}

// Flat returns the System for an original (non-hierarchical) algorithm.
func Flat(alg string) System {
	return System{Name: title(alg) + " (original)", Flat: alg}
}

// Adaptive returns the System for a composition whose inter level starts
// as initialInter and switches at runtime.
func Adaptive(intra, initialInter string) System {
	return System{
		Name:          title(intra) + "-Adaptive",
		Spec:          core.Spec{Intra: intra, Inter: initialInter},
		AdaptiveInter: true,
	}
}

// Biased returns a composition whose coordinators serve up to k extra
// local requests before each inter handoff (Bertier-style local bias).
func Biased(intra, inter string, k int) System {
	return System{
		Name:      fmt.Sprintf("%s-%s (bias %d)", title(intra), title(inter), k),
		Spec:      core.Spec{Intra: intra, Inter: inter},
		LocalBias: k,
	}
}

func title(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if b[0] >= 'a' && b[0] <= 'z' {
		b[0] -= 'a' - 'A'
	}
	return string(b)
}

// Scale bundles the experiment dimensions so every figure can run at the
// paper's size or at a fast test size.
type Scale struct {
	// Clusters is the number of clusters; when UseGrid5000 is set it
	// must be at most 9 and the Figure 3 latencies are used.
	Clusters int
	// AppsPerCluster is the number of application processes per cluster
	// (composed deployments add one coordinator node per cluster).
	AppsPerCluster int
	// UseGrid5000 selects the measured Figure 3 latency matrix; when
	// false a uniform synthetic grid is used.
	UseGrid5000 bool
	// CustomMatrix, when non-nil, supplies an operator-measured
	// cluster RTT matrix instead (see topology.ParseMatrixSpec); it
	// overrides UseGrid5000 and Clusters.
	CustomMatrix *topology.Matrix
	// LocalRTT/RemoteRTT configure the synthetic grid when UseGrid5000
	// is false.
	LocalRTT, RemoteRTT time.Duration
	// CSPerProcess is the number of critical sections per process (100
	// in the paper).
	CSPerProcess int
	// Repetitions is how many seeded runs are averaged per point (10 in
	// the paper).
	Repetitions int
	// Rhos is the swept degree-of-parallelism axis. Ignored when Phases
	// is set.
	Rhos []float64
	// Phases, when non-empty, replaces the fixed ρ by a virtual-time
	// schedule (adaptive-composition experiments).
	Phases []workload.Phase
	// Alpha is the critical section duration (10 ms in the paper).
	Alpha time.Duration
	// BaseSeed derives every run's seed.
	BaseSeed int64
	// Jitter is the per-message latency jitter fraction.
	Jitter float64
	// Loss drops each message with this probability; set Reliable too or
	// the run will stall (the algorithms assume reliable channels).
	Loss float64
	// Reliable wraps the fabric in the sequencing/ack/retransmission
	// layer of internal/reliable.
	Reliable bool
	// HotCluster and HotSkew skew the workload toward one cluster (see
	// workload.Params); HotSkew <= 1 disables the skew.
	HotCluster int
	HotSkew    float64
	// Workers bounds how many repetitions run concurrently, each on its
	// own private Simulator (the goroutine fan-out lives in
	// internal/fleet; this package stays goroutine-free). It is fleet's
	// count — 1 keeps every run on the calling goroutine, negative means
	// GOMAXPROCS — except that the zero value means 1 too, so a Scale that
	// does not mention Workers stays serial. Aggregates and progress lines
	// are byte-identical for every setting: per-repetition partials are
	// merged by (system, ρ, rep) index, never by completion order.
	Workers int
}

// Validate rejects degenerate experiment dimensions. Without it,
// Repetitions < 1 or CSPerProcess < 1 silently yield empty-but-plausible
// points (zeroed aggregates that render like real data).
func (s Scale) Validate() error {
	if s.Repetitions < 1 {
		return fmt.Errorf("harness: Repetitions %d, need at least 1", s.Repetitions)
	}
	if s.CSPerProcess < 1 {
		return fmt.Errorf("harness: CSPerProcess %d, need at least 1", s.CSPerProcess)
	}
	if s.AppsPerCluster < 1 {
		return fmt.Errorf("harness: AppsPerCluster %d, need at least 1", s.AppsPerCluster)
	}
	if s.CustomMatrix == nil && s.Clusters < 1 {
		return fmt.Errorf("harness: Clusters %d, need at least 1", s.Clusters)
	}
	return nil
}

// N returns the total number of application processes.
func (s Scale) N() int {
	if s.CustomMatrix != nil {
		return len(s.CustomMatrix.Names) * s.AppsPerCluster
	}
	return s.Clusters * s.AppsPerCluster
}

// PaperScale reproduces the evaluation dimensions of section 4.1: 9
// Grid'5000 clusters, 20 application processes each (N = 180), 100 critical
// sections of 10 ms per process, 10 repetitions per point, ρ swept over the
// three parallelism regimes.
func PaperScale() Scale {
	return Scale{
		Clusters:       9,
		AppsPerCluster: 20,
		UseGrid5000:    true,
		CSPerProcess:   100,
		Repetitions:    10,
		Alpha:          10 * time.Millisecond,
		Rhos:           []float64{45, 90, 135, 180, 270, 360, 450, 540, 720, 1080},
		BaseSeed:       1,
		Jitter:         0.05,
	}
}

// QuickScale is a down-scaled configuration for tests and benchmarks: 3
// clusters of 4 (N = 12), preserving the three ρ regimes around the
// smaller N.
func QuickScale() Scale {
	return Scale{
		Clusters:       3,
		AppsPerCluster: 4,
		LocalRTT:       time.Millisecond,
		RemoteRTT:      20 * time.Millisecond,
		CSPerProcess:   10,
		Repetitions:    2,
		Alpha:          5 * time.Millisecond,
		Rhos:           []float64{3, 6, 12, 24, 36, 48, 72},
		BaseSeed:       1,
		Jitter:         0.05,
	}
}

// Point is the aggregate of all repetitions of one (system, ρ) cell.
type Point struct {
	System string
	Rho    float64
	// Obtaining aggregates the obtaining time in milliseconds across
	// all repetitions' grants.
	Obtaining stats.Summary
	// InterMsgsPerCS / IntraMsgsPerCS / TotalMsgsPerCS are sent-message
	// counts normalized per critical section.
	InterMsgsPerCS, IntraMsgsPerCS, TotalMsgsPerCS float64
	// InterBytesPerCS normalizes modeled wire bytes crossing cluster
	// boundaries per critical section.
	InterBytesPerCS float64
	// Grants counts critical sections entered across repetitions.
	Grants int64
	// Switches counts committed adaptive algorithm switches across
	// repetitions (adaptive systems only).
	Switches int64
	// PhaseObtaining breaks the obtaining time down by workload phase
	// (phased runs only), binned by grant instant.
	PhaseObtaining []stats.Summary
	// Fairness is Jain's fairness index over the per-process mean
	// obtaining times: 1 means every process waited equally on average.
	Fairness float64
	// Handoffs counts inter-token handoffs across repetitions; BiasRounds
	// counts extra local serving rounds inserted by the local-bias policy.
	Handoffs, BiasRounds int64
	// PerCluster breaks the obtaining time down by the requester's
	// cluster, exposing the grid's latency heterogeneity.
	PerCluster []stats.Summary
	// CIHalf is the half-width of the 95% confidence interval of the
	// mean obtaining time, computed over the per-repetition means (0
	// with fewer than 2 repetitions).
	CIHalf float64
	// Events counts DES events processed across the cell's repetitions —
	// the simulator-throughput denominator benchmark records report.
	Events int64
}

// Result is a full experiment: one Point per (system, ρ).
type Result struct {
	Systems []System
	Scale   Scale
	Points  []Point // len(Systems) * len(Rhos), system-major
}

// Point returns the cell for (system name, rho), or nil.
func (r *Result) Point(system string, rho float64) *Point {
	for i := range r.Points {
		if r.Points[i].System == system && r.Points[i].Rho == rho {
			return &r.Points[i]
		}
	}
	return nil
}

// Run executes the experiment: every system at every ρ, Repetitions times
// each, fanning repetitions out across Scale.Workers goroutines (each on
// its own Simulator). Progress, when non-nil, receives a line per
// completed cell. Results are independent of Workers.
func Run(systems []System, scale Scale, progress func(string)) (*Result, error) {
	res := &Result{Systems: systems, Scale: scale}
	cells := make([]cell, 0, len(systems)*len(scale.Rhos))
	for _, sys := range systems {
		for _, rho := range scale.Rhos {
			cells = append(cells, cell{sys: sys, scale: scale, rho: rho})
		}
	}
	err := runCells(cells, scale.Workers, func(_ int, p *Point) {
		res.Points = append(res.Points, *p)
		if progress != nil {
			progress(fmt.Sprintf("%-22s rho=%6.0f  obtain=%8.2fms  inter/CS=%6.2f",
				p.System, p.Rho, p.Obtaining.Mean, p.InterMsgsPerCS))
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// deriveSeed mixes (BaseSeed, ρ, rep) into one run seed (rng.Mix). ρ enters
// through its IEEE-754 bit pattern, so arbitrarily close fractional sweep
// values draw distinct streams. The seed deliberately ignores the system
// under test: every system replays the same random streams per (ρ, rep) —
// common random numbers — which is what keeps cross-system curve
// differences paired.
func deriveSeed(base int64, rho float64, rep int) int64 {
	return rng.Mix(base, math.Float64bits(rho), uint64(rep))
}

// cell is one (system, scale, ρ) experiment cell; Repetitions seeded runs
// aggregate into one Point. Each cell carries its own Scale because some
// experiments (scalability) vary dimensions per cell.
type cell struct {
	sys   System
	scale Scale
	rho   float64
}

// repPartial is the digest one repetition contributes to its cell:
// accumulators and counters, never raw records, so a parallel run buffers
// bounded state per repetition. Only obtain carries a percentile backend —
// a t-digest sketch, so even million-CS repetitions stay O(compression);
// every other accumulator stays compact.
type repPartial struct {
	obtain     stats.Accumulator
	phase      []stats.Accumulator
	perProc    []stats.Accumulator // indexed by process ID (dense)
	perCluster []stats.Accumulator
	counters   simnet.Counters
	grants     int64
	events     int64
	switches   int64
	handoffs   int64
	biasRounds int64
}

// digest folds one run's records into a repPartial. It walks records in
// grant order, which the single-threaded simulation makes deterministic.
func digest(scale Scale, out run.Outcome) repPartial {
	p := repPartial{
		counters: out.Counters,
		grants:   int64(len(out.Records)),
		events:   int64(out.Events),
		switches: out.Switches,
	}
	for _, c := range out.Core.Coordinators {
		p.handoffs += c.Stats().InterHandoffs
		p.biasRounds += c.Stats().BiasRounds
	}
	p.obtain.Sketch = true
	p.phase = make([]stats.Accumulator, len(scale.Phases))
	for _, r := range out.Records {
		ms := float64(r.Obtaining()) / float64(time.Millisecond)
		p.obtain.Push(ms)
		if len(scale.Phases) > 0 {
			p.phase[phaseOf(scale.Phases, r.AcquiredAt)].Push(ms)
		}
		for int(r.ID) >= len(p.perProc) {
			p.perProc = append(p.perProc, stats.Accumulator{})
		}
		p.perProc[r.ID].Push(ms)
		for r.Cluster >= len(p.perCluster) {
			p.perCluster = append(p.perCluster, stats.Accumulator{})
		}
		p.perCluster[r.Cluster].Push(ms)
	}
	return p
}

// mergeCell folds one cell's per-repetition partials into its Point,
// always in repetition order — never completion order — which is what
// makes serial and parallel runs byte-identical.
func mergeCell(c cell, partials []repPartial) (*Point, error) {
	obtain := stats.Accumulator{Sketch: true}
	phase := make([]stats.Accumulator, len(c.scale.Phases))
	var perProc, perCluster []stats.Accumulator
	repMeans := make([]float64, 0, len(partials))
	var interMsgs, intraMsgs, totalMsgs, interBytes, grants, events, switches int64
	var handoffs, biasRounds int64
	for rep := range partials {
		part := &partials[rep]
		if part.grants == 0 {
			return nil, fmt.Errorf("repetition %d produced no grants", rep)
		}
		obtain.Merge(&part.obtain)
		for i := range part.phase {
			phase[i].Merge(&part.phase[i])
		}
		for len(perProc) < len(part.perProc) {
			perProc = append(perProc, stats.Accumulator{})
		}
		for i := range part.perProc {
			perProc[i].Merge(&part.perProc[i])
		}
		for len(perCluster) < len(part.perCluster) {
			perCluster = append(perCluster, stats.Accumulator{})
		}
		for i := range part.perCluster {
			perCluster[i].Merge(&part.perCluster[i])
		}
		repMeans = append(repMeans, part.obtain.Mean())
		grants += part.grants
		events += part.events
		interMsgs += part.counters.InterMessages
		intraMsgs += part.counters.IntraMessages
		totalMsgs += part.counters.Messages
		interBytes += part.counters.InterBytes
		switches += part.switches
		handoffs += part.handoffs
		biasRounds += part.biasRounds
	}
	p := &Point{System: c.sys.Name, Rho: c.rho, Obtaining: obtain.Summarize(),
		Grants: grants, Switches: switches, Events: events}
	for i := range phase {
		p.PhaseObtaining = append(p.PhaseObtaining, phase[i].Summarize())
	}
	// Walk processes in ID (slice index) order: float summation inside
	// JainIndex is not associative, so any other order would perturb the
	// fairness digit.
	means := make([]float64, 0, len(perProc))
	for i := range perProc {
		if perProc[i].N() > 0 {
			means = append(means, perProc[i].Mean())
		}
	}
	p.Fairness = stats.JainIndex(means)
	p.Handoffs = handoffs
	p.BiasRounds = biasRounds
	p.CIHalf = stats.CI95Half(repMeans)
	for i := range perCluster {
		p.PerCluster = append(p.PerCluster, perCluster[i].Summarize())
	}
	if grants > 0 {
		g := float64(grants)
		p.InterMsgsPerCS = float64(interMsgs) / g
		p.IntraMsgsPerCS = float64(intraMsgs) / g
		p.TotalMsgsPerCS = float64(totalMsgs) / g
		p.InterBytesPerCS = float64(interBytes) / g
	}
	return p, nil
}

// runShards executes size(g) seeded runs for each of groups experiment
// cells, fanned out through internal/fleet as one flat list of (cell, rep)
// shards, and hands each cell's results, in repetition order, to merge the
// moment its last shard is emitted — on the calling goroutine, for every
// workers setting (Scale.Workers), so progress streams. Results merge by
// (cell, rep) index, never completion order — which is what makes
// aggregates byte-identical for every Workers setting.
func runShards[T any](groups int, size func(group int) int, workers int, exec func(group, rep int) (T, error), merge func(group int, parts []T) error) error {
	type shard struct{ group, rep int }
	var shards []shard
	for g := 0; g < groups; g++ {
		for rep := 0; rep < size(g); rep++ {
			shards = append(shards, shard{g, rep})
		}
	}
	if workers == 0 {
		workers = 1
	}
	var parts []T
	return fleet.Each(len(shards), workers, func(i int) (T, error) {
		return exec(shards[i].group, shards[i].rep)
	}, func(i int, part T) error {
		parts = append(parts, part)
		g := shards[i].group
		if len(parts) < size(g) {
			return nil
		}
		cell := parts
		parts = nil
		return merge(g, cell)
	})
}

// runCells executes every (cell, repetition) simulation, merges the
// partials by (cell, rep) index and hands each merged Point to emit, in
// cell order.
func runCells(cells []cell, workers int, emit func(i int, p *Point)) error {
	for i := range cells {
		if err := cells[i].scale.Validate(); err != nil {
			return err
		}
	}
	reps := func(ci int) int { return cells[ci].scale.Repetitions }
	return runShards(len(cells), reps, workers, func(ci, rep int) (repPartial, error) {
		c := cells[ci]
		out, err := runOnce(c.sys, c.scale, c.rho, deriveSeed(c.scale.BaseSeed, c.rho, rep))
		if err != nil {
			return repPartial{}, fmt.Errorf("harness: %s at rho=%g: repetition %d: %w",
				c.sys.Name, c.rho, rep, err)
		}
		return digest(c.scale, out), nil
	}, func(ci int, partials []repPartial) error {
		p, err := mergeCell(cells[ci], partials)
		if err != nil {
			return fmt.Errorf("harness: %s at rho=%g: %w", cells[ci].sys.Name, cells[ci].rho, err)
		}
		emit(ci, p)
		return nil
	})
}

// grid builds the run topology: every cluster gets the system's reserved
// infrastructure nodes on top of the scale's application processes, so the
// application count is the same whatever the system under test.
func grid(sys run.System, scale Scale) (*topology.Grid, error) {
	per := scale.AppsPerCluster + sys.Reserved()
	if scale.CustomMatrix != nil {
		return scale.CustomMatrix.Grid(per)
	}
	if scale.UseGrid5000 {
		if scale.Clusters != 9 {
			return nil, fmt.Errorf("grid5000 topology has 9 clusters, not %d", scale.Clusters)
		}
		return topology.Grid5000(per), nil
	}
	local, remote := scale.LocalRTT, scale.RemoteRTT
	if local < 0 || remote < 0 {
		return nil, fmt.Errorf("negative RTT (local %v, remote %v)", local, remote)
	}
	if local == 0 {
		local = time.Millisecond
	}
	if remote == 0 {
		remote = 20 * time.Millisecond
	}
	return topology.Uniform(scale.Clusters, per, local, remote), nil
}

// spec is the harness's one translation of a Scale into a run description:
// sys at ρ under seed, on the scale's grid, network and workload.
func (scale Scale) spec(sys run.System, rho float64, seed int64) (run.Spec, error) {
	g, err := grid(sys, scale)
	if err != nil {
		return run.Spec{}, err
	}
	spec := run.Spec{
		Grid: g, Seed: seed, Jitter: scale.Jitter, Loss: scale.Loss,
		Workload: workload.Params{
			Alpha: scale.Alpha, Rho: rho, Phases: scale.Phases, Dist: workload.Exponential,
			CSPerProcess: scale.CSPerProcess,
			HotCluster:   scale.HotCluster, HotSkew: scale.HotSkew,
		},
		System: sys,
	}
	if scale.Reliable {
		spec.Reliable = &reliable.Options{}
	}
	return spec, nil
}

// runOnce executes one seeded (system, ρ) simulation on the run kernel.
func runOnce(sys System, scale Scale, rho float64, seed int64) (run.Outcome, error) {
	spec, err := scale.spec(sys.RunSystem(), rho, seed)
	if err != nil {
		return run.Outcome{}, err
	}
	return drive(spec)
}

// drive builds and drives one run and applies the harness's pass rule: an
// experiment run must drain, leave the safety monitor clean and quiescent,
// and complete its workload. Anything else is an error.
func drive(spec run.Spec) (run.Outcome, error) {
	r, err := run.Build(spec)
	if err != nil {
		return run.Outcome{}, err
	}
	out := r.Drive()
	return out, verify(out)
}

func verify(out run.Outcome) error {
	// A queue that drained under the liveness watchdog (no detectors) is
	// left to the monitor first: the watchdog's violation names the stall
	// instant, the bare stall only the count.
	if s := out.Stall; s != nil && (s.Kind == run.NoDrain || s.Detectors) {
		return s
	}
	out.Monitor.AssertQuiescent()
	if !out.Monitor.Ok() {
		return fmt.Errorf("property violation: %s", out.Monitor.Violations()[0])
	}
	if out.Stall != nil {
		return out.Stall
	}
	return nil
}

// phaseOf returns the index of the phase in force at virtual instant t.
func phaseOf(phases []workload.Phase, t des.Time) int {
	for i := range phases {
		if i == len(phases)-1 || t < phases[i].Until {
			return i
		}
	}
	return len(phases) - 1
}
