// Package workload implements the paper's application model (section 4.1):
// every application process executes a fixed number of critical sections of
// duration α, separated by idle periods of mean β, with ρ = β/α expressing
// the degree of parallelism (ρ ≤ N: low parallelism / high contention,
// N < ρ ≤ 3N: intermediate, ρ ≥ 3N: high parallelism / rare contention).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gridmutex/internal/check"
	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
	"gridmutex/internal/rng"
)

// Distribution selects the shape of the idle-time distribution.
type Distribution uint8

const (
	// Exponential idle times with mean β (a Poisson request process, the
	// usual model for the paper's workload).
	Exponential Distribution = iota
	// Constant idle times of exactly β.
	Constant
	// Uniform idle times over [0, 2β] (mean β).
	Uniform
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Exponential:
		return "exponential"
	case Constant:
		return "constant"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("Distribution(%d)", uint8(d))
	}
}

// Phase is one segment of a phased workload: Rho applies until the virtual
// instant Until.
type Phase struct {
	// Rho is β/α during this phase.
	Rho float64
	// Until is the virtual time at which the next phase begins. The
	// last phase's Until is ignored (it runs to completion).
	Until time.Duration
}

// Params describes one run's application behaviour.
type Params struct {
	// Alpha is the critical section duration (10 ms in the paper).
	Alpha time.Duration
	// Rho is β/α; β = Rho*Alpha is the mean idle time between a release
	// and the next request.
	Rho float64
	// Phases, when non-empty, makes the degree of parallelism vary over
	// virtual time (used by the adaptive-composition experiments); Rho
	// is then ignored.
	Phases []Phase
	// Dist shapes the idle time distribution.
	Dist Distribution
	// CSPerProcess is how many critical sections each process executes
	// (100 in the paper).
	CSPerProcess int
	// HotCluster and HotSkew model locality skew: processes in
	// HotCluster use an idle time of beta/HotSkew, requesting HotSkew
	// times more often than the rest. HotSkew <= 1 disables the skew.
	HotCluster int
	HotSkew    float64
	// Seed drives the workload's randomness.
	Seed int64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Alpha <= 0 {
		return fmt.Errorf("workload: alpha %v must be positive", p.Alpha)
	}
	if !finiteNonNeg(p.Rho) {
		return fmt.Errorf("workload: rho %v must be finite and non-negative", p.Rho)
	}
	if !finiteNonNeg(p.HotSkew) {
		return fmt.Errorf("workload: hot skew %v must be finite and non-negative", p.HotSkew)
	}
	for i, ph := range p.Phases {
		if !finiteNonNeg(ph.Rho) {
			return fmt.Errorf("workload: phase %d rho %v must be finite and non-negative", i, ph.Rho)
		}
		if i > 0 && ph.Until <= p.Phases[i-1].Until && i != len(p.Phases)-1 {
			return fmt.Errorf("workload: phase %d boundary %v not after previous", i, ph.Until)
		}
	}
	if p.CSPerProcess <= 0 {
		return fmt.Errorf("workload: CSPerProcess %d must be positive", p.CSPerProcess)
	}
	if p.CSPerProcess > math.MaxInt32 {
		return fmt.Errorf("workload: CSPerProcess %d exceeds %d", p.CSPerProcess, math.MaxInt32)
	}
	return nil
}

// finiteNonNeg reports whether v is finite and non-negative: false for NaN,
// which every comparison fails, and for +Inf.
func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Beta returns the mean idle time β = ρ·α, saturating at the maximum
// representable duration.
func (p Params) Beta() time.Duration {
	return clampDur(p.Rho * float64(p.Alpha))
}

// Record captures one satisfied critical section request.
type Record struct {
	// ID is the application process.
	ID mutex.ID
	// Cluster is the process's cluster.
	Cluster int
	// RequestedAt and AcquiredAt bound the obtaining time.
	RequestedAt, AcquiredAt des.Time
}

// Obtaining returns the request-to-grant delay — the paper's central
// metric.
func (r Record) Obtaining() time.Duration {
	return time.Duration(r.AcquiredAt - r.RequestedAt)
}

// Runner drives a deployment's application processes through the workload.
// Construction order matters because callbacks bind at instance build time:
//
//	r := workload.NewRunner(sim, params, monitor)
//	d, err := core.BuildComposed(net, grid, spec, r.Callbacks)
//	r.Bind(d.Apps)
//	r.Start()
//	sim.Run()  // or RunCapped
//	records := r.Records()
//
// A caller that folds each grant as it happens sets a sink with OnGrant
// before Bind; the runner then keeps no record list.
type Runner struct {
	sim     *des.Simulator
	params  Params
	rng     *rand.Rand
	monitor *check.Monitor
	// procs holds one record per mutex.ID up to the largest application
	// ID, sized once by Bind; ids that are no application (coordinators,
	// standbys) hold a zero record whose app flag is false.
	procs   []appProc
	apps    int
	records []Record
	grants  int
	// onGrant, when set, receives every grant in place of records.
	onGrant func(Record)
	bound   bool
	started bool
	// Run progress, kept current by setWaiting and setRemaining — the only
	// writers of appProc.waiting and appProc.remaining — so the liveness
	// watchdog (one tick per interval) reads a field instead of walking
	// every process, and the drive learns of completion from onDone instead
	// of polling.
	waiting     int // processes with an ungranted request
	unfinished  int // processes with remaining > 0
	outstanding int // sum of remaining
	onDone      func()
}

// appProc is one application's workload state, held by value in
// Runner.procs. Its two timers are typed des events (see timers), so it
// carries no closure.
type appProc struct {
	inst      mutex.Instance
	reqAt     des.Time
	cluster   int32
	remaining int32 // Params.Validate bounds CSPerProcess to an int32
	lostCS    int32 // critical sections forfeited by a crash, restored on Revive
	waiting   bool  // a request is outstanding and not yet granted
	dead      bool  // crashed: all scheduled activity becomes a no-op
	app       bool  // the record belongs to an application process
}

// timer is the one-byte message of the runner's timer events: which of a
// process's two timers fired.
type timer uint8

const (
	requestTimer timer = iota // the idle period is over: request the CS
	exitTimer                 // the CS duration is over: release
)

// Kind implements mutex.Message.
func (timer) Kind() string { return "workload.timer" }

// timers is the runner seen as the handler of its timer events: the event
// names the process as its sender and the timer as its message, so
// scheduling one binds nothing per process.
type timers Runner

func (h *timers) Deliver(id mutex.ID, m mutex.Message) {
	r := (*Runner)(h)
	if m.(timer) == requestTimer {
		r.request(&r.procs[id])
	} else {
		r.exitCS(id, &r.procs[id])
	}
}

// after schedules timer k of process id d from now.
func (r *Runner) after(d time.Duration, id mutex.ID, k timer) {
	r.sim.AtDeliver(r.sim.In(d), (*timers)(r), id, k)
}

// NewRunner creates a runner; monitor may be nil to skip safety checking.
func NewRunner(sim *des.Simulator, params Params, monitor *check.Monitor) (*Runner, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Runner{
		sim:     sim,
		params:  params,
		rng:     rng.New(params.Seed),
		monitor: monitor,
	}, nil
}

// Callbacks is the core.CallbackFunc to pass to the deployment builder.
func (r *Runner) Callbacks(id mutex.ID) mutex.Callbacks {
	return mutex.Callbacks{OnAcquire: func() { r.onAcquire(id) }}
}

// Bind attaches the built application processes to the runner. The apps
// must be in ascending ID order, as every deployment lists them: Start
// schedules their first requests in that order. Bind allocates the per-id
// procs slice and nothing else: no Record is reserved for a grant not yet
// made, so its cost does not depend on CSPerProcess.
func (r *Runner) Bind(apps []core.App) {
	if r.bound {
		panic("workload: Bind called twice")
	}
	r.bound = true
	for i, a := range apps {
		if a.Instance == nil {
			panic(fmt.Sprintf("workload: app %d has no instance", a.ID))
		}
		if a.ID < 0 || i > 0 && a.ID <= apps[i-1].ID {
			panic(fmt.Sprintf("workload: app %d out of ascending ID order", a.ID))
		}
	}
	if len(apps) > 0 {
		r.procs = make([]appProc, apps[len(apps)-1].ID+1)
	}
	for _, a := range apps {
		p := &r.procs[a.ID]
		*p = appProc{inst: a.Instance, cluster: int32(a.Cluster), app: true}
		r.setRemaining(p, r.params.CSPerProcess)
	}
	r.apps = len(apps)
}

// proc returns the application process with the given id, or nil when the
// id belongs to no application (a coordinator, a standby, out of range).
func (r *Runner) proc(id mutex.ID) *appProc {
	if id < 0 || int(id) >= len(r.procs) || !r.procs[id].app {
		return nil
	}
	return &r.procs[id]
}

// setWaiting and setRemaining are the only writers of the two appProc
// fields the progress counters summarise.
func (r *Runner) setWaiting(p *appProc, w bool) {
	if p.waiting != w {
		if w {
			r.waiting++
		} else {
			r.waiting--
		}
		p.waiting = w
	}
}

func (r *Runner) setRemaining(p *appProc, n int) {
	was := int(p.remaining)
	r.outstanding += n - was
	p.remaining = int32(n)
	switch {
	case was <= 0 && n > 0:
		r.unfinished++
	case was > 0 && n <= 0:
		r.unfinished--
		if r.unfinished == 0 && r.onDone != nil {
			r.onDone()
		}
	}
}

// OnGrant hands every grant to f the instant it happens, in grant order,
// instead of buffering it: Records then stays nil. f runs inside the
// grant's event. Call it before Bind.
func (r *Runner) OnGrant(f func(Record)) {
	if r.bound {
		panic("workload: OnGrant after Bind")
	}
	r.onGrant = f
}

// OnDone registers f to run the instant the last unfinished process exits
// its last critical section or crashes — every time Done turns true, since
// a Revive can turn it false again. f runs inside that event, with the
// progress counters already current.
func (r *Runner) OnDone(f func()) { r.onDone = f }

// Start schedules every process's first request after an initial idle
// period, staggering arrivals the way the paper's free-running processes
// do.
func (r *Runner) Start() {
	if !r.bound {
		panic("workload: Start before Bind")
	}
	if r.started {
		panic("workload: Start called twice")
	}
	r.started = true
	// One timer per application: the slot array grows once, not through
	// every doubling on the way.
	r.sim.Reserve(r.apps)
	for i := range r.procs {
		if p := &r.procs[i]; p.app {
			r.after(r.idle(p.cluster), mutex.ID(i), requestTimer)
		}
	}
}

// currentRho returns the degree of parallelism in force now.
func (r *Runner) currentRho() float64 {
	if len(r.params.Phases) == 0 {
		return r.params.Rho
	}
	now := r.sim.Now()
	for i, ph := range r.params.Phases {
		if i == len(r.params.Phases)-1 || now < ph.Until {
			return ph.Rho
		}
	}
	return r.params.Phases[len(r.params.Phases)-1].Rho
}

// idle draws one idle period from the configured distribution for a
// process in the given cluster.
func (r *Runner) idle(cluster int32) time.Duration {
	beta := r.currentRho() * float64(r.params.Alpha)
	if r.params.HotSkew > 1 && int(cluster) == r.params.HotCluster {
		beta /= r.params.HotSkew
	}
	if beta <= 0 {
		return 0
	}
	switch r.params.Dist {
	case Constant:
		return clampDur(beta)
	case Uniform:
		return clampDur(2 * beta * r.rng.Float64())
	default:
		return clampDur(beta * r.rng.ExpFloat64())
	}
}

// clampDur converts a non-negative float64 of nanoseconds to a duration,
// saturating at the maximum. A direct conversion of a value at or above
// 2^63 is undefined (in practice it wraps negative), which turned huge
// ρ·α products — or an unlucky exponential draw on top of one — into
// events scheduled in the past. The scenario loader rejects parameters
// whose β already overflows; the clamp covers the distribution tail.
func clampDur(v float64) time.Duration {
	if v >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(v)
}

// Crash marks the process dead: it abandons any outstanding request, runs
// no further critical sections, and its already-scheduled timers become
// no-ops. Unknown ids (coordinators, standbys, fresh hierarchy processes)
// are ignored so fault injection can target any node. Call Monitor.Crashed
// separately — the runner does not know whether the process was inside its
// critical section from the monitor's point of view. Crashing a crashed
// process is a no-op, as in simnet.Crash: the critical sections the first
// crash set aside stay set aside for Revive.
func (r *Runner) Crash(id mutex.ID) {
	p := r.proc(id)
	if p == nil || p.dead {
		return
	}
	p.dead = true
	p.lostCS = p.remaining
	r.setRemaining(p, 0)
	r.setWaiting(p, false)
}

// Revive resumes a crashed process after its node restarted and its group
// re-admitted it: the critical sections forfeited by the crash are restored
// and a fresh request cycle starts after one idle period. The rejoined
// member holds no claim (restart is amnesiac), so the process resumes from
// a clean request. Unknown or never-crashed ids are ignored, mirroring
// Crash.
func (r *Runner) Revive(id mutex.ID) {
	p := r.proc(id)
	if p == nil || !p.dead {
		return
	}
	p.dead = false
	r.setRemaining(p, int(p.lostCS))
	p.lostCS = 0
	if p.remaining > 0 {
		r.after(r.idle(p.cluster), id, requestTimer)
	}
}

func (r *Runner) request(p *appProc) {
	if p.dead {
		return
	}
	p.reqAt = r.sim.Now()
	r.setWaiting(p, true)
	p.inst.Request()
}

func (r *Runner) onAcquire(id mutex.ID) {
	p := r.proc(id)
	if p == nil {
		panic(fmt.Sprintf("workload: acquire for unknown process %d", id))
	}
	if p.dead {
		return // a grant racing a crash: the dead process ignores it
	}
	r.setWaiting(p, false)
	if r.monitor != nil {
		r.monitor.Enter(id)
	}
	rec := Record{
		ID: id, Cluster: int(p.cluster),
		RequestedAt: p.reqAt, AcquiredAt: r.sim.Now(),
	}
	r.grants++
	if r.onGrant != nil {
		r.onGrant(rec)
	} else {
		r.records = append(r.records, rec)
	}
	r.after(r.params.Alpha, id, exitTimer)
}

// exitCS ends process id's critical section: exit the monitor, release the
// lock, and schedule the next request after an idle period.
func (r *Runner) exitCS(id mutex.ID, p *appProc) {
	if p.dead {
		return // crashed inside the CS: no exit, no release
	}
	if r.monitor != nil {
		r.monitor.Exit(id)
	}
	p.inst.Release()
	r.setRemaining(p, int(p.remaining)-1)
	if p.remaining > 0 {
		r.after(r.idle(p.cluster), id, requestTimer)
	}
}

// Records returns every satisfied request so far, in grant order: nil
// before the first grant, and always nil when a sink (OnGrant) receives
// them instead. Without a sink the list grows by append as grants happen.
func (r *Runner) Records() []Record { return r.records }

// Grants returns how many requests have been satisfied so far, with or
// without a sink.
func (r *Runner) Grants() int { return r.grants }

// Done reports whether every process has finished its critical sections.
func (r *Runner) Done() bool { return r.unfinished == 0 }

// Outstanding returns how many critical sections remain across all
// processes.
func (r *Runner) Outstanding() int { return r.outstanding }

// Waiting returns how many processes have an outstanding request that has
// not been granted yet — the quantity a liveness watchdog should monitor
// (idle processes between critical sections do not count).
func (r *Runner) Waiting() int { return r.waiting }

// ExpectedTotal returns the number of grants a complete run produces.
func (r *Runner) ExpectedTotal() int {
	return r.apps * r.params.CSPerProcess
}
