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
	"gridmutex/internal/recovery"
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
	// must be exactly 9 and the Figure 3 latencies are used.
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
	// is false; zero is instant.
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
	// count: <= 0 means GOMAXPROCS, so a Scale that does not mention
	// Workers uses every core, and 1 keeps every run on the calling
	// goroutine. Aggregates and progress lines are byte-identical for every
	// setting: per-repetition partials are merged by (system, ρ, rep)
	// index, never by completion order. Only this package's tests and the
	// benchmark set it; commands leave the count to GOMAXPROCS.
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
// three parallelism regimes. Its RTTs are the synthetic grids' of the
// scalability sweep; the Grid'5000 matrix ignores them.
func PaperScale() Scale {
	return Scale{
		Clusters:       9,
		AppsPerCluster: 20,
		UseGrid5000:    true,
		LocalRTT:       time.Millisecond,
		RemoteRTT:      20 * time.Millisecond,
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

// Point is the aggregate of all repetitions of one experiment cell: a
// (system, ρ) pair, plus the cell's own axis value in the scalability,
// crash-recovery and partition sweeps.
type Point struct {
	System string
	Rho    float64
	// Clusters is a scalability cell's cluster count; Period is the failure
	// detector's heartbeat period and Cut the partition window of a
	// crash-recovery or partition cell. Each is zero elsewhere.
	Clusters    int
	Period, Cut time.Duration
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
	// Events counts DES events processed across the cell's repetitions and
	// Queue sums the event queue's counted work (HighWater is the deepest
	// repetition's): what the cell costs to simulate. Neither enters a table.
	Events int64
	Queue  des.QueueStats
	// The fault fields stay zero unless the cell runs the crash-tolerant
	// deployment. RecoveryLatency aggregates crash-to-first-regeneration
	// delays in milliseconds. Epochs counts membership epochs,
	// Regenerations those announced with a regenerated token, and
	// MinorityFreezes entries into the minority-frozen state.
	// DroppedPartition counts messages discarded because their link crossed
	// an active cut. All of them count across repetitions.
	RecoveryLatency                                          stats.Summary
	Epochs, Regenerations, MinorityFreezes, DroppedPartition int64
	// DetectorMsgsPerSec is the failure detector's message rate
	// (heartbeats, probes, acks and epoch announcements) per second of
	// virtual time, and DetectorShare its fraction of all sent messages.
	DetectorMsgsPerSec, DetectorShare float64
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

// Run executes the experiment: every system at every ρ, or once under the
// scale's Phases (one Point per system, at Rho 0), Repetitions times each,
// fanning repetitions out across Scale.Workers goroutines (each on its own
// Simulator). Progress, when non-nil, receives a line per completed cell.
// Results are independent of Workers.
func Run(systems []System, scale Scale, progress func(string)) (*Result, error) {
	rhos, phased := scale.Rhos, len(scale.Phases) > 0
	if phased {
		rhos = []float64{0}
	}
	cells := make([]cell, 0, len(systems)*len(rhos))
	for _, sys := range systems {
		for _, rho := range rhos {
			cells = append(cells, cell{sys: sys.RunSystem(), scale: scale, at: Point{System: sys.Name, Rho: rho}})
		}
	}
	return sweep(systems, scale, cells, progress, func(p *Point) string {
		if phased {
			return fmt.Sprintf("%-22s obtain=%8.2fms  inter/CS=%6.2f  switches=%d",
				p.System, p.Obtaining.Mean, p.InterMsgsPerCS, p.Switches)
		}
		return fmt.Sprintf("%-22s rho=%6.0f  obtain=%8.2fms  inter/CS=%6.2f",
			p.System, p.Rho, p.Obtaining.Mean, p.InterMsgsPerCS)
	})
}

// RunCell runs the one cell of sys at rho, Repetitions times, as Run does,
// and returns its Point. Where Run's cells keep moments only, RunCell's
// Obtaining also carries P50, P95 and P99: exact order statistics over the
// cell's grants, whose obtaining times it retains while it runs.
func RunCell(sys System, scale Scale, rho float64) (Point, error) {
	c := cell{sys: sys.RunSystem(), scale: scale, at: Point{System: sys.Name, Rho: rho}, exact: true}
	res, err := sweep([]System{sys}, scale, []cell{c}, nil, nil)
	if err != nil {
		return Point{}, err
	}
	return res.Points[0], nil
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

// cell is one experiment cell; Repetitions seeded runs of sys aggregate into
// one Point. Each cell carries its own Scale because some experiments
// (scalability) vary dimensions per cell. at is the Point's template: the
// system name, ρ and the cell's axis value. A fault sweep's cell also names
// its axis value in axis, which perturbs the seed, and sets its fault on
// every repetition's Spec. An exact cell summarizes its obtaining times
// with exact percentiles (RunCell).
type cell struct {
	sys   run.System
	scale Scale
	at    Point
	axis  time.Duration
	fault func(spec *run.Spec, seed int64)
	exact bool
}

// spec describes repetition rep of c, seeded with deriveSeed(BaseSeed^axis,
// ρ, rep): every system at a figure's ρ (axis 0) shares its streams, and a
// fault sweep's axis value gives each of its rows streams of their own.
func (c *cell) spec(rep int) (run.Spec, error) {
	seed := deriveSeed(c.scale.BaseSeed^int64(c.axis), c.at.Rho, rep)
	spec, err := c.scale.spec(c.sys, c.at.Rho, seed)
	if err == nil && c.fault != nil {
		c.fault(&spec, seed)
	}
	return spec, err
}

// where names c in an error: its system, ρ and fault axis value.
func (c *cell) where() string {
	if c.axis == 0 {
		return fmt.Sprintf("%s at rho=%g", c.at.System, c.at.Rho)
	}
	return fmt.Sprintf("%s at rho=%g, %v", c.at.System, c.at.Rho, c.axis)
}

// repPartial is the digest one repetition contributes to its cell:
// accumulators and counters, never raw records. Each grant is folded in as
// it happens (digest), so a repetition holds bounded state however many
// grants it makes: every accumulator is compact, except obtain in a cell
// RunCell runs, which retains its samples for exact percentiles. The fault
// counts stay zero outside the crash-tolerant deployment.
type repPartial struct {
	phases     []workload.Phase // the scale's schedule, which bins grants into phase
	obtain     stats.Accumulator
	phase      []stats.Accumulator
	perProc    []stats.Accumulator // indexed by process ID (dense)
	perCluster []stats.Accumulator
	counters   simnet.Counters
	queue      des.QueueStats
	grants     int64
	events     int64
	switches   int64
	handoffs   int64
	biasRounds int64

	latency                 stats.Accumulator // crash-to-regeneration delays (ms)
	epochs, regens, freezes int64
	virtual                 time.Duration
}

// newRepPartial is the empty digest of one repetition under the phase
// schedule phases; with retain set, its obtaining times keep their samples.
func newRepPartial(phases []workload.Phase, retain bool) repPartial {
	return repPartial{
		phases: phases,
		obtain: stats.Accumulator{Retain: retain},
		phase:  make([]stats.Accumulator, len(phases)),
	}
}

// digest folds one grant into p. It is the run's sink (run.Spec.OnGrant),
// so grants arrive in grant order, which the single-threaded simulation
// makes deterministic.
func (p *repPartial) digest(r workload.Record) {
	ms := float64(r.Obtaining()) / float64(time.Millisecond)
	p.obtain.Push(ms)
	if len(p.phases) > 0 {
		p.phase[phaseOf(p.phases, r.AcquiredAt)].Push(ms)
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

// finish takes the run-wide counts from the repetition's outcome: the
// coordinators' of every deployment, and the recovery members' of a
// crash-tolerant one.
func (p *repPartial) finish(out run.Outcome) {
	p.counters, p.queue = out.Counters, out.Queue
	p.grants, p.events = int64(out.Grants), int64(out.Events)
	p.switches = out.Switches
	for _, c := range out.Core.Coordinators {
		p.handoffs += c.Stats().InterHandoffs
		p.biasRounds += c.Stats().BiasRounds
	}
	if out.Recovery != nil {
		members := out.Recovery.Stats()
		p.epochs, p.regens, p.freezes = out.Monitor.Epochs(), members.Regenerations, members.MinorityFreezes
		p.virtual = out.Elapsed
		for _, d := range out.Monitor.RecoveryLatencies() {
			p.latency.Push(float64(d) / float64(time.Millisecond))
		}
	}
}

// runRep drives one repetition of cell c, digesting its grants as they
// happen.
func runRep(c *cell, rep int) (repPartial, error) {
	spec, err := c.spec(rep)
	if err != nil {
		return repPartial{}, err
	}
	p := newRepPartial(c.scale.Phases, c.exact)
	spec.OnGrant = p.digest
	out, err := drive(spec)
	if err != nil {
		return repPartial{}, err
	}
	p.finish(out)
	return p, nil
}

// mergeCell folds one cell's per-repetition partials into its Point,
// always in repetition order — never completion order — which is what
// makes serial and parallel runs byte-identical.
func mergeCell(c *cell, partials []repPartial) (Point, error) {
	obtain := stats.Accumulator{Retain: c.exact}
	phase := make([]stats.Accumulator, len(c.scale.Phases))
	var latency stats.Accumulator
	var perProc, perCluster []stats.Accumulator
	repMeans := make([]float64, 0, len(partials))
	var interMsgs, intraMsgs, totalMsgs, interBytes, detectorMsgs int64
	var virtual time.Duration
	p := c.at
	for rep := range partials {
		part := &partials[rep]
		if part.grants == 0 {
			return Point{}, fmt.Errorf("repetition %d produced no grants", rep)
		}
		obtain.Merge(&part.obtain)
		latency.Merge(&part.latency)
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
		interMsgs += part.counters.InterMessages
		intraMsgs += part.counters.IntraMessages
		totalMsgs += part.counters.Messages
		interBytes += part.counters.InterBytes
		detectorMsgs += recovery.DetectorMessages(part.counters.ByKind)
		virtual += part.virtual
		p.Grants += part.grants
		p.Events += part.events
		p.Switches += part.switches
		p.Handoffs += part.handoffs
		p.BiasRounds += part.biasRounds
		p.Epochs += part.epochs
		p.Regenerations += part.regens
		p.MinorityFreezes += part.freezes
		p.DroppedPartition += part.counters.DroppedPartition
		p.Queue.Pushes += part.queue.Pushes
		p.Queue.Moves += part.queue.Moves
		p.Queue.Scatters += part.queue.Scatters
		p.Queue.Closures += part.queue.Closures
		p.Queue.HighWater = max(p.Queue.HighWater, part.queue.HighWater)
	}
	p.Obtaining, p.RecoveryLatency = obtain.Summarize(), latency.Summarize()
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
	p.CIHalf = stats.CI95Half(repMeans)
	for i := range perCluster {
		p.PerCluster = append(p.PerCluster, perCluster[i].Summarize())
	}
	if p.Grants > 0 {
		g := float64(p.Grants)
		p.InterMsgsPerCS = float64(interMsgs) / g
		p.IntraMsgsPerCS = float64(intraMsgs) / g
		p.TotalMsgsPerCS = float64(totalMsgs) / g
		p.InterBytesPerCS = float64(interBytes) / g
	}
	if sec := virtual.Seconds(); sec > 0 {
		p.DetectorMsgsPerSec = float64(detectorMsgs) / sec
	}
	if totalMsgs > 0 {
		p.DetectorShare = float64(detectorMsgs) / float64(totalMsgs)
	}
	return p, nil
}

// costs renders what a cell cost to simulate, in counts exact per seed:
// its events, the event queue's key moves per event and pending high-water,
// and the closure events per grant.
func costs(events, grants int64, q des.QueueStats) string {
	return fmt.Sprintf("events=%-9d  %5.2f key moves/event, high-water %d, %.4f closures/grant",
		events, q.MovesPerEvent(), q.HighWater, float64(q.Closures)/float64(max(grants, 1)))
}

// sweep is the harness's one experiment driver. It runs every cell
// Repetitions times through runShards, digests each repetition as it runs,
// merges each cell's partials into its Point and, in cell order, hands
// progress line(p) followed by the cell's costs. Points and progress lines
// are byte-identical for every Scale.Workers setting.
func sweep(systems []System, scale Scale, cells []cell, progress func(string), line func(p *Point) string) (*Result, error) {
	for i := range cells {
		if err := cells[i].scale.Validate(); err != nil {
			return nil, err
		}
	}
	res := &Result{Systems: systems, Scale: scale}
	reps := func(ci int) int { return cells[ci].scale.Repetitions }
	err := runShards(len(cells), reps, scale.Workers, func(ci, rep int) (repPartial, error) {
		p, err := runRep(&cells[ci], rep)
		if err != nil {
			return repPartial{}, fmt.Errorf("harness: %s: repetition %d: %w", cells[ci].where(), rep, err)
		}
		return p, nil
	}, func(ci int, partials []repPartial) error {
		p, err := mergeCell(&cells[ci], partials)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", cells[ci].where(), err)
		}
		res.Points = append(res.Points, p)
		if progress != nil {
			progress(line(&p) + "  " + costs(p.Events, p.Grants, p.Queue))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
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
	if scale.LocalRTT < 0 || scale.RemoteRTT < 0 {
		return nil, fmt.Errorf("negative RTT (local %v, remote %v)", scale.LocalRTT, scale.RemoteRTT)
	}
	return topology.Uniform(scale.Clusters, per, scale.LocalRTT, scale.RemoteRTT), nil
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
