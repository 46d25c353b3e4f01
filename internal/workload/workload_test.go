package workload

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"gridmutex/internal/check"
	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
	"gridmutex/internal/rng"
	"gridmutex/internal/simnet"
	"gridmutex/internal/topology"
)

func TestParamsValidate(t *testing.T) {
	good := Params{Alpha: 10 * time.Millisecond, Rho: 5, CSPerProcess: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Alpha: 0, Rho: 5, CSPerProcess: 10},
		{Alpha: time.Millisecond, Rho: -1, CSPerProcess: 10},
		{Alpha: time.Millisecond, Rho: 5, CSPerProcess: 0},
		{Alpha: time.Millisecond, Rho: 5, CSPerProcess: 1 << 31}, // would wrap the int32 counters
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestBeta(t *testing.T) {
	p := Params{Alpha: 10 * time.Millisecond, Rho: 180}
	if got, want := p.Beta(), 1800*time.Millisecond; got != want {
		t.Fatalf("Beta = %v, want %v", got, want)
	}
}

func TestRecordObtaining(t *testing.T) {
	r := Record{RequestedAt: 100 * time.Millisecond, AcquiredAt: 250 * time.Millisecond}
	if got := r.Obtaining(); got != 150*time.Millisecond {
		t.Fatalf("Obtaining = %v", got)
	}
}

func TestDistributionString(t *testing.T) {
	for d, want := range map[Distribution]string{
		Exponential: "exponential", Constant: "constant", Uniform: "uniform",
		Distribution(9): "Distribution(9)",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
}

// runFlat runs a full workload over a flat central deployment and returns
// the runner.
func runFlat(t *testing.T, params Params, dist Distribution) *Runner {
	t.Helper()
	params.Dist = dist
	sim := des.New()
	grid := topology.Single(4, time.Millisecond)
	net := simnet.New(sim, grid, simnet.Options{})
	mon := check.NewMonitor(sim)
	runner, err := NewRunner(sim, params, mon)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildFlat(net, grid, "central", runner.Callbacks)
	if err != nil {
		t.Fatal(err)
	}
	runner.Bind(d.Apps)
	runner.Start()
	if err := sim.RunCapped(1_000_000); err != nil {
		t.Fatal(err)
	}
	mon.AssertQuiescent()
	if !mon.Ok() {
		t.Fatalf("violations: %v", mon.Violations())
	}
	return runner
}

func TestFullRunAllDistributions(t *testing.T) {
	params := Params{Alpha: 2 * time.Millisecond, Rho: 10, CSPerProcess: 12, Seed: 3}
	for _, dist := range []Distribution{Exponential, Constant, Uniform} {
		t.Run(dist.String(), func(t *testing.T) {
			r := runFlat(t, params, dist)
			if !r.Done() {
				t.Fatalf("%d outstanding", r.Outstanding())
			}
			recs := r.Records()
			if len(recs) != r.ExpectedTotal() {
				t.Fatalf("%d records, want %d", len(recs), r.ExpectedTotal())
			}
			for i, rec := range recs {
				if rec.AcquiredAt < rec.RequestedAt {
					t.Fatalf("record %d acquired before requested: %+v", i, rec)
				}
				if i > 0 && rec.AcquiredAt < recs[i-1].AcquiredAt {
					t.Fatalf("records not in grant order at %d", i)
				}
			}
		})
	}
}

func TestZeroRhoMeansBackToBack(t *testing.T) {
	params := Params{Alpha: 2 * time.Millisecond, Rho: 0, CSPerProcess: 5, Seed: 1}
	r := runFlat(t, params, Exponential)
	if !r.Done() {
		t.Fatal("zero-rho run incomplete")
	}
}

// TestExponentialIdleMean: the generated idle times must average β.
func TestExponentialIdleMean(t *testing.T) {
	sim := des.New()
	params := Params{Alpha: 10 * time.Millisecond, Rho: 20, CSPerProcess: 1, Seed: 42}
	r, err := NewRunner(sim, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += r.idle(0)
	}
	mean := float64(sum) / n
	want := float64(params.Beta())
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("exponential idle mean %.3gms, want ~%.3gms",
			mean/1e6, want/1e6)
	}
}

func TestUniformIdleBounds(t *testing.T) {
	sim := des.New()
	params := Params{Alpha: 10 * time.Millisecond, Rho: 10, Dist: Uniform, CSPerProcess: 1, Seed: 7}
	r, err := NewRunner(sim, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	beta := params.Beta()
	for i := 0; i < 5000; i++ {
		d := r.idle(0)
		if d < 0 || d >= 2*beta {
			t.Fatalf("uniform idle %v outside [0, 2β)", d)
		}
	}
}

func TestConstantIdleExact(t *testing.T) {
	sim := des.New()
	params := Params{Alpha: 10 * time.Millisecond, Rho: 3, Dist: Constant, CSPerProcess: 1, Seed: 7}
	r, err := NewRunner(sim, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if d := r.idle(0); d != params.Beta() {
			t.Fatalf("constant idle %v, want %v", d, params.Beta())
		}
	}
}

func TestRunnerProtocolPanics(t *testing.T) {
	mk := func() *Runner {
		r, err := NewRunner(des.New(), Params{Alpha: time.Millisecond, Rho: 1, CSPerProcess: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	t.Run("start before bind", func(t *testing.T) {
		r := mk()
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r.Start()
	})
	t.Run("double bind", func(t *testing.T) {
		r := mk()
		r.Bind(nil)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r.Bind(nil)
	})
	t.Run("double start", func(t *testing.T) {
		r := mk()
		r.Bind(nil)
		r.Start()
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r.Start()
	})
	t.Run("nil instance", func(t *testing.T) {
		r := mk()
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r.Bind([]core.App{{ID: 1}})
	})
}

func TestNewRunnerRejectsBadParams(t *testing.T) {
	if _, err := NewRunner(des.New(), Params{}, nil); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestPhasedRhoSchedule(t *testing.T) {
	sim := des.New()
	params := Params{
		Alpha: 10 * time.Millisecond,
		Phases: []Phase{
			{Rho: 2, Until: time.Second},
			{Rho: 100, Until: 2 * time.Second},
			{Rho: 10},
		},
		CSPerProcess: 1, Seed: 1,
	}
	r, err := NewRunner(sim, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.currentRho(); got != 2 {
		t.Errorf("rho at t=0: %v, want 2", got)
	}
	sim.RunUntil(1500 * time.Millisecond)
	if got := r.currentRho(); got != 100 {
		t.Errorf("rho at t=1.5s: %v, want 100", got)
	}
	sim.RunUntil(5 * time.Second)
	if got := r.currentRho(); got != 10 {
		t.Errorf("rho at t=5s: %v, want 10 (final phase)", got)
	}
}

func TestPhasedRunCompletes(t *testing.T) {
	params := Params{
		Alpha: 2 * time.Millisecond,
		Phases: []Phase{
			{Rho: 1, Until: 50 * time.Millisecond},
			{Rho: 50},
		},
		CSPerProcess: 10, Seed: 2,
	}
	r := runFlat(t, params, Exponential)
	if !r.Done() {
		t.Fatalf("phased run incomplete: %d outstanding", r.Outstanding())
	}
}

func TestPhaseValidation(t *testing.T) {
	bad := Params{
		Alpha: time.Millisecond, CSPerProcess: 1,
		Phases: []Phase{{Rho: -1, Until: time.Second}, {Rho: 1}},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative phase rho accepted")
	}
	unordered := Params{
		Alpha: time.Millisecond, CSPerProcess: 1,
		Phases: []Phase{{Rho: 1, Until: 2 * time.Second}, {Rho: 1, Until: time.Second}, {Rho: 1}},
	}
	if err := unordered.Validate(); err == nil {
		t.Fatal("unordered phase boundaries accepted")
	}
}

// recount is the oracle for the runner's progress counters: the loops
// Waiting, Outstanding and Done used to be, kept here only to check the
// counters against.
func recount(r *Runner) (waiting, outstanding int, done bool) {
	done = true
	for _, p := range r.procs {
		if !p.app {
			continue
		}
		if p.waiting {
			waiting++
		}
		outstanding += int(p.remaining)
		if p.remaining > 0 {
			done = false
		}
	}
	return
}

// checkCounters fails unless the runner's counters equal a recount over
// its processes.
func checkCounters(t *testing.T, r *Runner, when string) {
	t.Helper()
	w, o, d := recount(r)
	if r.Waiting() != w || r.Outstanding() != o || r.Done() != d {
		t.Fatalf("%s: waiting=%d outstanding=%d done=%v, recount says %d %d %v",
			when, r.Waiting(), r.Outstanding(), r.Done(), w, o, d)
	}
}

// stubLock is a lock the test grants by hand: Request queues, grant hands
// the lock to the head of the queue through the runner's OnAcquire, and
// crashes are the test's to stage. It lets a grant arrive for a process
// that died waiting and a CS timer fire for one that died inside.
type stubLock struct {
	queue  []mutex.ID
	holder mutex.ID
}

type stubInst struct {
	lock *stubLock
	id   mutex.ID
}

func (s stubInst) Request()                        { s.lock.queue = append(s.lock.queue, s.id) }
func (s stubInst) Release()                        { s.lock.holder = mutex.None }
func (s stubInst) Deliver(mutex.ID, mutex.Message) {}
func (s stubInst) HasPending() bool                { return false }
func (s stubInst) HoldsToken() bool                { return s.lock.holder == s.id }
func (s stubInst) State() mutex.State              { return mutex.NoReq }

// grant offers the free lock to the longest-waiting requester; a dead
// requester ignores it (no record) and the lock stays free.
func (l *stubLock) grant(r *Runner) {
	if l.holder != mutex.None || len(l.queue) == 0 {
		return
	}
	id := l.queue[0]
	l.queue = l.queue[1:]
	before := len(r.Records())
	r.Callbacks(id).OnAcquire()
	if len(r.Records()) > before {
		l.holder = id
	}
}

// crash kills id in the runner and frees the lock if it died holding it.
func (l *stubLock) crash(r *Runner, id mutex.ID) {
	r.Crash(id)
	if l.holder == id {
		l.holder = mutex.None
	}
}

// stubRunner binds a runner with constant 2 ms idle and CS times to stub
// applications 0, 1 and 3: id 2 is a hole inside the process table, ids
// above 3 lie beyond it.
func stubRunner(t *testing.T, cs int) (*des.Simulator, *Runner, *stubLock) {
	t.Helper()
	sim := des.New()
	r, err := NewRunner(sim, Params{
		Alpha: 2 * time.Millisecond, Rho: 1, Dist: Constant, CSPerProcess: cs, Seed: 5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lock := &stubLock{holder: mutex.None}
	var apps []core.App
	for _, id := range []mutex.ID{0, 1, 3} {
		apps = append(apps, core.App{ID: id, Instance: stubInst{lock, id}})
	}
	r.Bind(apps)
	return sim, r, lock
}

func TestOutstandingAndWaiting(t *testing.T) {
	t.Run("full run", func(t *testing.T) {
		sim := des.New()
		grid := topology.Single(3, time.Millisecond)
		net := simnet.New(sim, grid, simnet.Options{})
		runner, err := NewRunner(sim, Params{
			Alpha: 2 * time.Millisecond, Rho: 2, CSPerProcess: 4, Seed: 8,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.BuildFlat(net, grid, "central", runner.Callbacks)
		if err != nil {
			t.Fatal(err)
		}
		runner.Bind(d.Apps)
		fired := 0
		runner.OnDone(func() { fired++ })
		if got := runner.Outstanding(); got != 12 {
			t.Fatalf("Outstanding before start = %d, want 12", got)
		}
		if runner.Waiting() != 0 {
			t.Fatal("Waiting before start should be 0")
		}
		if runner.Done() {
			t.Fatal("Done before start")
		}
		runner.Start()
		for sim.Now() < 20*time.Millisecond && sim.Step() {
			checkCounters(t, runner, "mid-run")
		}
		// Mid-run: releases have happened (20ms covers several 2ms critical
		// sections at rho = 2), so the remaining-CS count must have shrunk.
		if got := runner.Outstanding(); got >= 12 || got == 0 {
			t.Fatalf("Outstanding mid-run = %d, want in (0, 12)", got)
		}
		if w := runner.Waiting(); w < 0 || w > 3 {
			t.Fatalf("Waiting = %d out of range", w)
		}
		for sim.Step() {
			checkCounters(t, runner, "late run")
			if fired > 0 && !runner.Done() {
				t.Fatalf("OnDone fired with %d outstanding", runner.Outstanding())
			}
		}
		if fired != 1 {
			t.Fatalf("OnDone fired %d times over a full run, want once, at the last exit", fired)
		}
		if !runner.Done() || runner.Outstanding() != 0 || runner.Waiting() != 0 {
			t.Fatalf("final state: done=%v outstanding=%d waiting=%d",
				runner.Done(), runner.Outstanding(), runner.Waiting())
		}
	})

	// Every way a crash can meet the request cycle, in one scripted run.
	t.Run("crash and revive", func(t *testing.T) {
		sim, r, lock := stubRunner(t, 2)
		fired := 0
		r.OnDone(func() { fired++ })
		// expect also pins OnDone: it has fired once per time Done turned
		// true so far — on a crash and on a last exit alike, never before.
		expect := func(when string, waiting, outstanding int, done bool, onDone int) {
			t.Helper()
			checkCounters(t, r, when)
			if r.Waiting() != waiting || r.Outstanding() != outstanding || r.Done() != done || fired != onDone {
				t.Fatalf("%s: waiting=%d outstanding=%d done=%v OnDone=%d, want %d %d %v %d",
					when, r.Waiting(), r.Outstanding(), r.Done(), fired, waiting, outstanding, done, onDone)
			}
		}
		expect("bound", 0, 6, false, 0)
		r.Start()
		lock.crash(r, 0)
		expect("crash while idle", 0, 4, false, 0)
		sim.RunFor(3 * time.Millisecond) // 1 and 3 request; dead 0's timer is a no-op
		expect("two requests", 2, 4, false, 0)
		lock.crash(r, 1)
		expect("crash while waiting", 1, 2, false, 0)
		lock.grant(r)
		expect("late grant to a dead process", 1, 2, false, 0)
		if len(r.Records()) != 0 || lock.holder != mutex.None {
			t.Fatalf("dead process took the grant: %d records, holder %d", len(r.Records()), lock.holder)
		}
		lock.grant(r)
		expect("grant", 0, 2, false, 0)
		lock.crash(r, 3) // the last survivor: Done turns true by a crash
		expect("crash inside the CS", 0, 0, true, 1)
		sim.RunFor(3 * time.Millisecond) // 3's exitCS timer fires on a dead process
		expect("late exitCS", 0, 0, true, 1)
		lock.crash(r, 3)
		expect("double crash", 0, 0, true, 1)
		r.Revive(3)
		// The regression: the second crash used to overwrite the forfeited
		// count with zero, and the revived process never ran again.
		expect("revive after double crash", 0, 2, false, 1)
		for _, id := range []mutex.ID{-1, 2, 4, 99} {
			lock.crash(r, id)
			r.Revive(id)
		}
		expect("crash and revive of non-application ids", 0, 2, false, 1)
		r.Revive(0)
		r.Revive(1)
		r.Revive(1) // alive: ignored
		expect("all revived", 0, 6, false, 1)
		for sim.Step() {
			lock.grant(r)
			checkCounters(t, r, "drain")
		}
		expect("drained", 0, 0, true, 2) // fired again: the revived processes finished
		lock.crash(r, 0)
		r.Revive(0)
		expect("revive with nothing left", 0, 0, true, 2)
		if sim.Pending() != 0 {
			t.Fatalf("revive with nothing left scheduled %d events", sim.Pending())
		}
		defer func() {
			if recover() == nil {
				t.Error("acquire for a non-application id did not panic")
			}
		}()
		r.Callbacks(2).OnAcquire()
	})

	// A seeded walk over the same moves, checked against the recount after
	// every one.
	t.Run("seeded walk", func(t *testing.T) {
		sim, r, lock := stubRunner(t, 5)
		r.Start()
		rnd := rng.New(21)
		for i := 0; i < 4000; i++ {
			id := mutex.ID(rnd.Intn(6)) // 2, 4 and 5 are not applications
			switch k := rnd.Intn(10); {
			case k < 5:
				sim.Step()
			case k < 8:
				lock.grant(r)
			case k < 9:
				lock.crash(r, id)
			default:
				// A crash leaves the victim's timers queued; let them fire
				// on the dead process before it comes back.
				for until := sim.Now() + 3*time.Millisecond; sim.Now() < until && sim.Step(); {
					checkCounters(t, r, "flush before revive")
				}
				r.Revive(id)
			}
			checkCounters(t, r, "walk")
		}
		for _, id := range []mutex.ID{0, 1, 3} {
			r.Revive(id)
		}
		for sim.Step() {
			lock.grant(r)
			checkCounters(t, r, "drain")
		}
		if !r.Done() || r.Outstanding() != 0 || r.Waiting() != 0 {
			t.Fatalf("final state: done=%v outstanding=%d waiting=%d", r.Done(), r.Outstanding(), r.Waiting())
		}
	})
}

// BenchmarkWatchdogTick pins what the liveness watchdog's reads cost: two
// fields, the same at any size.
func BenchmarkWatchdogTick(b *testing.B) {
	for _, n := range []int{100, 100_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			r, err := NewRunner(des.New(), Params{Alpha: time.Millisecond, Rho: 1, CSPerProcess: 3}, nil)
			if err != nil {
				b.Fatal(err)
			}
			lock := &stubLock{holder: mutex.None}
			apps := make([]core.App, n)
			for i := range apps {
				apps[i] = core.App{ID: mutex.ID(i), Instance: stubInst{lock, mutex.ID(i)}}
			}
			r.Bind(apps)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tickWaiting += r.Waiting()
				tickDone = r.Done()
			}
		})
	}
}

var (
	tickWaiting int
	tickDone    bool
)

// TestIdleClampsOverflow: a β (or a draw above it) past 2^63 ns must
// saturate, not wrap into a negative duration scheduled in the past.
func TestIdleClampsOverflow(t *testing.T) {
	sim := des.New()
	for _, dist := range []Distribution{Constant, Uniform, Exponential} {
		r, err := NewRunner(sim, Params{
			Alpha: time.Hour, Rho: 1e18, Dist: dist, CSPerProcess: 1, Seed: 9,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if d := r.idle(0); d < 0 {
				t.Fatalf("%v: idle() = %v, wrapped negative", dist, d)
			}
		}
	}
	if b := (Params{Alpha: time.Hour, Rho: 1e18}).Beta(); b != time.Duration(math.MaxInt64) {
		t.Errorf("Beta() = %v, want saturation", b)
	}
}

// TestAppProcLayout pins the runner's per-application record: one value in
// one dense slice, at most 48 bytes, with no closure or pointer table
// beside it.
func TestAppProcLayout(t *testing.T) {
	if size := unsafe.Sizeof(appProc{}); size > 48 {
		t.Fatalf("appProc is %d bytes, want <= 48", size)
	}
}

// TestBindAllocsFlat: Bind allocates the record slice and the record
// buffer once, so binding 1,000 applications costs as many objects as
// binding 10.
func TestBindAllocsFlat(t *testing.T) {
	bind := func(n int) float64 {
		lock := &stubLock{holder: mutex.None}
		apps := make([]core.App, n)
		for i := range apps {
			apps[i] = core.App{ID: mutex.ID(2 * i), Cluster: i % 3, Instance: stubInst{lock, mutex.ID(2 * i)}}
		}
		return testing.AllocsPerRun(20, func() {
			r, err := NewRunner(des.New(), Params{Alpha: time.Millisecond, Rho: 1, CSPerProcess: 3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.Bind(apps)
		})
	}
	if small, large := bind(10), bind(1000); small != large {
		t.Errorf("NewRunner+Bind allocates %.0f objects for 10 apps and %.0f for 1,000, want the same", small, large)
	}
}

// TestGrantSink: with a sink set before Bind, every grant reaches it in
// grant order and nothing is buffered — Records stays nil, Grants counts the
// full run, and Bind allocates strictly fewer objects than with the apps ×
// CS record buffer, still flat in N. Without a sink the buffer holds the
// same grants.
func TestGrantSink(t *testing.T) {
	params := Params{Alpha: 2 * time.Millisecond, Rho: 10, CSPerProcess: 12, Seed: 3}
	want := runFlat(t, params, Exponential).Records()

	params.Dist = Exponential
	sim := des.New()
	grid := topology.Single(4, time.Millisecond)
	net := simnet.New(sim, grid, simnet.Options{})
	r, err := NewRunner(sim, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	r.OnGrant(func(rec Record) { got = append(got, rec) })
	d, err := core.BuildFlat(net, grid, "central", r.Callbacks)
	if err != nil {
		t.Fatal(err)
	}
	r.Bind(d.Apps)
	r.Start()
	if err := sim.RunCapped(1_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Records() != nil {
		t.Fatalf("%d records buffered beside the sink", len(r.Records()))
	}
	if r.Grants() != r.ExpectedTotal() || len(want) != r.ExpectedTotal() {
		t.Fatalf("Grants %d, %d buffered records, want %d", r.Grants(), len(want), r.ExpectedTotal())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the sink saw other grants than the buffer holds")
	}

	bind := func(n int, sink bool) float64 {
		lock := &stubLock{holder: mutex.None}
		apps := make([]core.App, n)
		for i := range apps {
			apps[i] = core.App{ID: mutex.ID(i), Instance: stubInst{lock, mutex.ID(i)}}
		}
		discard := func(Record) {}
		return testing.AllocsPerRun(20, func() {
			r, err := NewRunner(des.New(), Params{Alpha: time.Millisecond, Rho: 1, CSPerProcess: 3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sink {
				r.OnGrant(discard)
			}
			r.Bind(apps)
		})
	}
	small, large, buffering := bind(10, true), bind(1000, true), bind(1000, false)
	if small != large || large >= buffering {
		t.Errorf("NewRunner+OnGrant+Bind allocates %.0f objects for 10 apps and %.0f for 1,000, and %.0f without the sink: want flat and fewer",
			small, large, buffering)
	}
}

// TestBindRejectsUnorderedApps: Start schedules first requests in record
// order, which is the apps' order only when their IDs ascend, as every
// deployment lists them.
func TestBindRejectsUnorderedApps(t *testing.T) {
	lock := &stubLock{holder: mutex.None}
	for _, ids := range [][]mutex.ID{{3, 1}, {1, 1}, {-1}} {
		r, err := NewRunner(des.New(), Params{Alpha: time.Millisecond, Rho: 1, CSPerProcess: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var apps []core.App
		for _, id := range ids {
			apps = append(apps, core.App{ID: id, Instance: stubInst{lock, id}})
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bind(%v) did not panic", ids)
				}
			}()
			r.Bind(apps)
		}()
	}
}
