package run

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/des"
	"gridmutex/internal/faults"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

// quickSpec is a Spec at the harness's quick-scale size: clusters of four
// application processes plus reserved infrastructure nodes, 1 ms local and
// 20 ms remote RTT, ten 5 ms critical sections per process.
func quickSpec(clusters int, sys System) Spec {
	return Spec{
		Grid:          topology.Uniform(clusters, 4+sys.Reserved(), time.Millisecond, 20*time.Millisecond),
		Seed:          1,
		Jitter:        0.05,
		TraceCapacity: 1 << 17,
		Workload: workload.Params{
			Alpha: 5 * time.Millisecond, Rho: 6, Dist: workload.Exponential,
			CSPerProcess: 10,
		},
		System: sys,
	}
}

// TestSystemsAndModes builds every system kind the kernel knows in every
// drive mode that kind supports and holds each run to the same bar: the
// workload completes, the safety monitor stays clean and quiescent, and a
// second run from the same Spec reproduces the trace, the records and the
// counters exactly. It is the determinism regression the gridlint suite
// exists to protect — any wall-clock read, unsorted map walk or stray
// goroutine on the simulation path shows up here as a diff.
func TestSystemsAndModes(t *testing.T) {
	systems := []struct {
		name     string
		clusters int
		sys      System
	}{
		{"flat", 3, System{Flat: "central"}},
		{"composed", 3, System{Intra: "naimi", Inter: "naimi"}},
		{"biased", 3, System{Intra: "naimi", Inter: "martin", LocalBias: 2}},
		{"three-level", 4, System{Levels: []string{"naimi", "naimi", "naimi"}, Groups: []int{2}}},
		{"adaptive", 3, System{Intra: "naimi", Inter: "martin", AdaptiveInter: true}},
		{"recovery", 3, System{Intra: "naimi", Inter: "naimi", Heartbeat: 10 * time.Millisecond}},
	}
	modes := []struct {
		name    string
		horizon time.Duration
	}{
		{"completion", 0},
		{"horizon", 200 * time.Millisecond},
	}
	for _, s := range systems {
		for _, m := range modes {
			t.Run(s.name+"/"+m.name, func(t *testing.T) {
				spec := quickSpec(s.clusters, s.sys)
				spec.Horizon = m.horizon
				recovery := s.sys.Heartbeat > 0
				first, firstGrants := driveGrants(t, spec)
				if first.Stall != nil {
					t.Fatalf("stalled: %v", first.Stall)
				}
				// Stopping the detectors at the horizon stops a recovery
				// deployment's members too, so its drain grants nothing
				// more; every other combination runs to completion.
				want, got := s.clusters*4*10, first.Grants
				if partial := recovery && m.horizon > 0; got > want || got == 0 || (got < want && !partial) {
					t.Fatalf("%d grants, want %d", got, want)
				}
				first.Monitor.AssertQuiescent()
				if !first.Monitor.Ok() {
					t.Fatalf("violations: %v", first.Monitor.Violations())
				}
				// Core is always set, so readers of an outcome need no
				// branch on the deployment kind; a recovery run's Core is
				// the one embedded in its crash-tolerant deployment.
				if first.Core == nil || (first.Recovery != nil) != recovery ||
					(recovery && first.Core != &first.Recovery.Deployment) {
					t.Fatalf("wrong deployment: core %p recovery %p, want core set and recovery=%v embedding it", first.Core, first.Recovery, recovery)
				}
				// Per-kind counters are on exactly when there are detectors
				// whose traffic to report.
				if (first.Counters.ByKind != nil) != recovery {
					t.Fatalf("ByKind %v on a run with recovery=%v", first.Counters.ByKind, recovery)
				}
				if first.Trace == "" {
					t.Fatal("empty trace; TraceCapacity not wired through")
				}
				second, secondGrants := driveGrants(t, spec)
				if first.Trace != second.Trace {
					t.Errorf("same seed produced different traces:\n%s", firstDiff(first.Trace, second.Trace))
				}
				if !slices.Equal(firstGrants, secondGrants) {
					t.Error("same seed produced different grants")
				}
				if !reflect.DeepEqual(first.Counters, second.Counters) {
					t.Errorf("same seed produced different message counters:\n  %+v\n  %+v", first.Counters, second.Counters)
				}
				if first.Events != second.Events || first.Elapsed != second.Elapsed {
					t.Errorf("same seed: events %d vs %d, elapsed %v vs %v", first.Events, second.Events, first.Elapsed, second.Elapsed)
				}
			})
		}
	}
}

func mustDrive(t *testing.T, spec Spec) Outcome {
	t.Helper()
	r, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r.Drive()
}

// driveGrants drives spec with a sink (Spec.OnGrant) that collects every
// grant, and holds the outcome's grant count to what the sink saw.
func driveGrants(t *testing.T, spec Spec) (Outcome, []workload.Record) {
	t.Helper()
	var sunk []workload.Record
	spec.OnGrant = func(r workload.Record) { sunk = append(sunk, r) }
	out := mustDrive(t, spec)
	if out.Grants != len(sunk) {
		t.Fatalf("Grants %d, the sink saw %d grants", out.Grants, len(sunk))
	}
	return out, sunk
}

// driveBoth drives spec twice, once with the run's own discarding sink and
// once collecting the grants (driveGrants), and holds the two to one
// outcome: the same stall, grant count and event count. It returns the
// collecting drive's outcome and grants.
func driveBoth(t *testing.T, spec Spec) (Outcome, []workload.Record) {
	t.Helper()
	out := mustDrive(t, spec)
	streamed, grants := driveGrants(t, spec)
	if !reflect.DeepEqual(streamed.Stall, out.Stall) {
		t.Fatalf("stall with a sink %+v, without %+v", streamed.Stall, out.Stall)
	}
	if streamed.Grants != out.Grants || streamed.Events != out.Events {
		t.Fatalf("with a sink: %d grants and %d events, without: %d and %d",
			streamed.Grants, streamed.Events, out.Grants, out.Events)
	}
	return streamed, grants
}

// firstDiff renders the first trace line where two dumps diverge.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  first:  %s\n  second: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("traces differ in length: %d vs %d lines", len(al), len(bl))
}

// TestHolderKill: a crash-on-CS-entry fault fires at the named entry,
// lands in the crashed set, and the survivors complete under the
// recovery-aware monitor.
func TestHolderKill(t *testing.T) {
	for _, coordinator := range []bool{false, true} {
		spec := quickSpec(3, System{Intra: "naimi", Inter: "naimi", Heartbeat: 10 * time.Millisecond})
		victim := spec.Grid.NodesIn(1)[3]
		spec.Faults.HolderKills = []HolderKill{{Victim: victim, Entry: 2, Coordinator: coordinator}}
		out := mustDrive(t, spec)
		if out.Stall != nil {
			t.Fatalf("coordinator=%v: stalled: %v", coordinator, out.Stall)
		}
		down := victim
		if coordinator {
			down = spec.Grid.NodesIn(1)[0]
		}
		if !out.Crashed[down] || len(out.Crashed) != 1 {
			t.Fatalf("coordinator=%v: crashed set %v, want {%d}", coordinator, out.Crashed, down)
		}
		out.Monitor.AssertQuiescent()
		if !out.Monitor.Ok() {
			t.Fatalf("coordinator=%v: violations: %v", coordinator, out.Monitor.Violations())
		}
		if out.Monitor.Epochs() == 0 {
			t.Errorf("coordinator=%v: no regeneration epoch after the crash", coordinator)
		}
		want := 3 * 4 * 10
		if !coordinator {
			want -= 10 - 2 // the victim dies inside its second critical section
		}
		if out.Grants != want {
			t.Errorf("coordinator=%v: %d grants, want %d", coordinator, out.Grants, want)
		}
	}
}

// sparseRecovery is a recovery run with one application per cluster whose
// detectors tick every 100 µs while each application requests once a
// second: by far most events are heartbeats.
func sparseRecovery(clusters int) Spec {
	return Spec{
		Grid: topology.Uniform(clusters, 3, 100*time.Microsecond, time.Millisecond),
		Seed: 1,
		Workload: workload.Params{
			Alpha: time.Millisecond, Rho: 1000, Dist: workload.Constant,
			CSPerProcess: 4,
		},
		System: System{Intra: "naimi", Inter: "naimi", Heartbeat: 100 * time.Microsecond},
	}
}

// TestRecoveryCapCountsSinceLastGrant: detector heartbeats must not
// exhaust the drain's event budget on a long run that keeps granting. The
// run processes more events in total than the default cap
// (ExpectedTotal·10⁴ + 10⁶) but never that many between two grants; with
// the cap counted from the start of the run it aborted with "requests
// unsatisfied after N events", which is why paper-scale recovery and
// partition sweeps never completed.
func TestRecoveryCapCountsSinceLastGrant(t *testing.T) {
	out, _ := driveBoth(t, sparseRecovery(2))
	if out.Stall != nil {
		t.Fatalf("stalled after %d events: %v", out.Events, out.Stall)
	}
	if out.Grants != 8 {
		t.Fatalf("%d grants, want 8", out.Grants)
	}
	if limit := uint64(8*10_000 + 1_000_000); out.Events <= limit {
		t.Fatalf("run took %d events, not more than the default cap %d: the test no longer exercises the cap", out.Events, limit)
	}
}

// TestRecoveryCapStillCatchesStall: a run that stops granting must still
// hit the cap, within two windows of the limit after its last grant.
// Cluster 0 loses its primary and its standby at the start, so its
// application can never obtain the inter token; the other two clusters
// (still a majority of the inter group) finish and the heartbeats go on
// forever.
func TestRecoveryCapStillCatchesStall(t *testing.T) {
	spec := sparseRecovery(3)
	spec.Workload.Rho = 10
	spec.EventLimit = 300_000 // several detector timeouts, so the survivors regenerate first
	nodes := spec.Grid.NodesIn(0)
	spec.Faults.Schedule = faults.Schedule{
		{At: 0, Node: nodes[0], Kind: faults.Crash},
		{At: 0, Node: nodes[1], Kind: faults.Crash},
	}
	out, grants := driveBoth(t, spec)
	var exceeded des.MaxEventsExceeded
	if out.Stall == nil || out.Stall.Kind != NoDrain || !errors.As(out.Stall.Err, &exceeded) {
		t.Fatalf("stall %+v, want NoDrain on the event cap", out.Stall)
	}
	if out.Stall.Outstanding == 0 {
		t.Error("stalled with nothing outstanding")
	}
	if len(grants) == 0 {
		t.Fatal("the healthy clusters never granted")
	}
	// A twin run stopped at the last grant's instant counts the events up
	// to it.
	twin, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	twin.runner.Start()
	twin.sim.RunUntil(grants[len(grants)-1].AcquiredAt)
	if since := out.Events - twin.sim.Processed(); since < spec.EventLimit || since > 2*spec.EventLimit {
		t.Errorf("gave up %d events after the last grant, want within [1, 2] windows of %d", since, spec.EventLimit)
	}
}

// TestUnsatisfiedStall: a queue that drains with requests outstanding is an
// Unsatisfied stall, after the liveness watchdog has named the instant.
// Flat Naimi-Trehel's initial token holder crashes before anyone asks: every
// request path ends at it, and nothing else keeps the queue alive.
func TestUnsatisfiedStall(t *testing.T) {
	spec := quickSpec(3, System{Flat: "naimi"})
	spec.TraceCapacity = 0
	spec.Faults.Schedule = faults.Schedule{{At: 0, Node: 0, Kind: faults.Crash}}
	out, _ := driveBoth(t, spec)
	if out.Stall == nil || out.Stall.Kind != Unsatisfied || out.Stall.Outstanding == 0 {
		t.Fatalf("stall %+v, want Unsatisfied with requests outstanding", out.Stall)
	}
	if out.Monitor.Ok() {
		t.Error("the liveness watchdog reported nothing")
	}
}

// TestLivenessWindowFollowsLatency: the watchdog waits 2,000 α or 50 of
// the grid's slowest jittered round trips, whichever is longer, for a
// grant. On a 100 s RTT grid one inter-cluster grant takes longer than
// quickSpec's 2,000 α of 10 s: at 8c8bdaa the run drained, but the
// monitor reported "liveness: 4 requests waiting but no CS entry between
// 10s and 20s".
func TestLivenessWindowFollowsLatency(t *testing.T) {
	spec := quickSpec(2, System{Intra: "naimi", Inter: "naimi"})
	spec.Grid = topology.Uniform(2, 5, time.Millisecond, 100*time.Second)
	spec.TraceCapacity = 0
	out, _ := driveBoth(t, spec)
	if out.Stall != nil {
		t.Fatalf("stalled: %v", out.Stall)
	}
	if !out.Monitor.Ok() {
		t.Fatalf("monitor: %v", out.Monitor.Violations())
	}
}

// TestHorizonStall: a horizon run's drain is held to the same event limit,
// counted from the last window that granted anything, and reports the
// horizon wording.
func TestHorizonStall(t *testing.T) {
	spec := quickSpec(3, System{Intra: "naimi", Inter: "naimi"})
	spec.TraceCapacity = 0
	spec.Horizon = 100 * time.Millisecond
	spec.EventLimit = 4
	out, _ := driveBoth(t, spec)
	var exceeded des.MaxEventsExceeded
	if out.Stall == nil || !out.Stall.Horizon || out.Stall.Kind != NoDrain || !errors.As(out.Stall.Err, &exceeded) {
		t.Fatalf("stall %+v, want a horizon NoDrain on the event cap", out.Stall)
	}
	if exceeded.Now <= spec.Horizon {
		t.Errorf("gave up at %v, inside the %v horizon", exceeded.Now, spec.Horizon)
	}
}

// TestStallError pins the one wording of a liveness failure that the
// harness's errors, the scenario verdicts and gridsim all report.
func TestStallError(t *testing.T) {
	capped := des.MaxEventsExceeded{Limit: 500, Now: 2 * time.Second}
	cases := []struct {
		name  string
		stall Stall
		want  string
	}{
		{"horizon", Stall{Kind: NoDrain, Err: capped, Outstanding: 3, Horizon: true, Detectors: true},
			"liveness: did not drain after horizon: des: exceeded 500 events at virtual time 2s"},
		{"no drain", Stall{Kind: NoDrain, Err: capped, Outstanding: 3},
			"liveness: did not drain: des: exceeded 500 events at virtual time 2s (outstanding 3)"},
		{"no drain, detectors", Stall{Kind: NoDrain, Err: capped, Outstanding: 3, Detectors: true},
			"liveness: did not drain: des: exceeded 500 events at virtual time 2s"},
		{"unsatisfied", Stall{Kind: Unsatisfied, Outstanding: 3},
			"liveness: 3 requests unsatisfied"},
		{"unsatisfied, detectors", Stall{Kind: Unsatisfied, Outstanding: 3, Detectors: true},
			"liveness: queue drained with 3 requests unsatisfied"},
	}
	for _, c := range cases {
		var err error = &c.stall
		if got := err.Error(); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSpecValidate is the table of what a legal run is: one valid Spec per
// system shape, and every contradiction a flag, a scenario file or a
// hand-built Spec could express, each an error naming the rule — never a
// precedence between fields, never a panic further down.
func TestSpecValidate(t *testing.T) {
	hb := 20 * time.Millisecond
	three := []string{"naimi", "naimi", "naimi"}
	cases := []struct {
		name   string
		sys    System
		mutate func(*Spec)
		want   string // "" means valid
	}{
		{"flat", System{Flat: "suzuki"}, nil, ""},
		{"composed", System{Intra: "naimi", Inter: "martin"}, nil, ""},
		{"biased", System{Intra: "naimi", Inter: "martin", LocalBias: 2}, nil, ""},
		{"adaptive", System{Intra: "naimi", Inter: "martin", AdaptiveInter: true}, nil, ""},
		{"recovery", System{Intra: "naimi", Inter: "naimi", Heartbeat: hb}, nil, ""},
		{"two levels", System{Levels: three[:2]}, nil, ""},
		{"three levels", System{Levels: three, Groups: []int{2}}, nil, ""},
		{"biased levels", System{Levels: three, Groups: []int{2}, LocalBias: 1}, nil, ""},
		{"horizon", System{Flat: "naimi"}, func(s *Spec) { s.Horizon = time.Second }, ""},

		{"nothing", System{}, nil, "needs intra and inter"},
		{"intra only", System{Intra: "naimi"}, nil, "needs intra and inter"},
		{"flat and pair", System{Flat: "naimi", Intra: "naimi", Inter: "naimi"}, nil, "flat excludes the other shapes"},
		{"flat adaptive", System{Flat: "naimi", AdaptiveInter: true}, nil, "flat excludes adaptive"},
		{"flat heartbeat", System{Flat: "naimi", Heartbeat: hb}, nil, "flat excludes adaptive and recovery"},
		{"flat bias", System{Flat: "naimi", LocalBias: 1}, nil, "local bias needs a composition"},
		{"levels and pair", System{Levels: three[:2], Intra: "naimi", Inter: "naimi"}, nil, "levels excludes the other shapes"},
		{"levels and flat", System{Levels: three[:2], Flat: "naimi"}, nil, "levels excludes the other shapes"},
		{"levels adaptive", System{Levels: three[:2], AdaptiveInter: true}, nil, "levels excludes adaptive"},
		{"levels heartbeat", System{Levels: three[:2], Heartbeat: hb}, nil, "levels excludes adaptive and recovery"},
		{"one level", System{Levels: three[:1]}, nil, "at least 2 levels"},
		{"levels without groups", System{Levels: three}, nil, "3 levels need 1 group sizes, got 0"},
		{"groups without levels", System{Intra: "naimi", Inter: "naimi", Groups: []int{2}}, nil, "groups need a levels list"},
		{"adaptive heartbeat", System{Intra: "naimi", Inter: "naimi", AdaptiveInter: true, Heartbeat: hb}, nil, "cannot combine"},
		{"negative bias", System{Intra: "naimi", Inter: "naimi", LocalBias: -1}, nil, "non-negative"},
		{"bias heartbeat", System{Intra: "naimi", Inter: "naimi", LocalBias: 1, Heartbeat: hb}, nil, "not supported under recovery"},
		{"negative heartbeat", System{Intra: "naimi", Inter: "naimi", Heartbeat: -hb}, nil, "heartbeat -20ms"},
		{"unknown flat", System{Flat: "nope"}, nil, `unknown algorithm "nope"`},
		{"unknown intra", System{Intra: "nope", Inter: "naimi"}, nil, `unknown algorithm "nope"`},
		{"unknown inter", System{Intra: "naimi", Inter: "nope"}, nil, `unknown algorithm "nope"`},
		{"unknown adaptive initial", System{Intra: "naimi", Inter: "nope", AdaptiveInter: true}, nil, `unknown algorithm "nope"`},
		{"unknown level", System{Levels: []string{"naimi", "nope"}}, nil, `unknown algorithm "nope"`},

		{"negative jitter", System{Flat: "naimi"}, func(s *Spec) { s.Jitter = -1 }, "jitter -1"},
		{"NaN jitter", System{Flat: "naimi"}, func(s *Spec) { s.Jitter = math.NaN() }, "jitter NaN must be finite"},
		{"infinite jitter", System{Flat: "naimi"}, func(s *Spec) { s.Jitter = math.Inf(1) }, "jitter +Inf must be finite"},
		{"NaN loss", System{Flat: "naimi"}, func(s *Spec) { s.Loss = math.NaN() }, "loss NaN outside [0, 1)"},
		{"NaN rho", System{Flat: "naimi"}, func(s *Spec) { s.Workload.Rho = math.NaN() }, "rho NaN must be finite"},
		{"infinite rho", System{Flat: "naimi"}, func(s *Spec) { s.Workload.Rho = math.Inf(1) }, "rho +Inf must be finite"},
		{"NaN hot skew", System{Flat: "naimi"}, func(s *Spec) { s.Workload.HotSkew = math.NaN() }, "hot skew NaN must be finite"},
		{"NaN phase rho", System{Flat: "naimi"}, func(s *Spec) {
			s.Workload.Phases = []workload.Phase{{Rho: 1, Until: time.Second}, {Rho: math.NaN()}}
		}, "phase 1 rho NaN must be finite"},
		{"negative loss", System{Flat: "naimi"}, func(s *Spec) { s.Loss = -0.1 }, "loss -0.1 outside [0, 1)"},
		{"loss one", System{Flat: "naimi"}, func(s *Spec) { s.Loss = 1 }, "loss 1 outside [0, 1)"},
		{"loss above one", System{Flat: "naimi"}, func(s *Spec) { s.Loss = 1.5 }, "loss 1.5 outside [0, 1)"},
		{"negative horizon", System{Flat: "naimi"}, func(s *Spec) { s.Horizon = -time.Second }, "horizon -1s"},
		{"workload", System{Flat: "naimi"}, func(s *Spec) { s.Workload.Alpha = 0 }, "workload: alpha"},
		{"critical sections past int32", System{Flat: "naimi"}, func(s *Spec) { s.Workload.CSPerProcess = 1 << 31 }, "CSPerProcess 2147483648 exceeds 2147483647"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := quickSpec(4, c.sys)
			if c.mutate != nil {
				c.mutate(&spec)
			}
			// No rule needs the grid: the scenario loader validates before
			// it has one.
			spec.Grid = nil
			err := spec.Validate()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("Validate() = %v, want an error mentioning %q", err, c.want)
			}
		})
	}
}

// TestBuildValidatesFirst: Build is the front door. A Spec that contradicts
// itself is an error — at d1e79f2 this one built flat Naimi with no
// detectors and said nothing — and a network value outside its range is an
// error before simnet.New's wiring guard could panic on it.
func TestBuildValidatesFirst(t *testing.T) {
	spec := quickSpec(3, System{Flat: "naimi", Heartbeat: 20 * time.Millisecond})
	if r, err := Build(spec); err == nil || !strings.Contains(err.Error(), "flat excludes") {
		t.Fatalf("Build(System{Flat, Heartbeat}) = %v, %v; want a \"flat excludes\" error", r, err)
	}
	spec = quickSpec(3, System{Flat: "naimi"})
	spec.Loss = 1.5
	if r, err := Build(spec); err == nil || !strings.Contains(err.Error(), "loss 1.5") {
		t.Fatalf("Build(Loss: 1.5) = %v, %v; want a loss error", r, err)
	}
}

// TestJitterFitsTheGrid: the one rule that needs the grid. quickSpec's
// largest one-way delay is 10 ms, so a jitter of 1e12 would stretch it past
// the longest time.Duration (simnet's delay wrapped negative and the drive
// scheduled into the past), and 9e11 still fits. Without a grid the rule is
// not checked.
func TestJitterFitsTheGrid(t *testing.T) {
	spec := quickSpec(2, System{Flat: "naimi"})
	spec.Jitter = 1e12
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "jitter 1e+12 stretches") {
		t.Errorf("Validate(Jitter: 1e12) = %v, want a jitter error", err)
	}
	spec.Grid = nil
	if err := spec.Validate(); err != nil {
		t.Errorf("Validate(Jitter: 1e12, no grid) = %v, want nil", err)
	}
	spec = quickSpec(2, System{Flat: "naimi"})
	spec.Jitter = 9e11
	if err := spec.Validate(); err != nil {
		t.Errorf("Validate(Jitter: 9e11) = %v, want nil", err)
	}
}

// TestBuildIndependentOfCS: Build reserves nothing per critical section, so
// a 2 × 2 Spec at the largest legal count builds in under 1 MB. At f612bf1
// Bind sized an apps × CS record buffer up front: 320 GiB here.
func TestBuildIndependentOfCS(t *testing.T) {
	spec := quickSpec(2, System{Flat: "naimi"})
	spec.Grid = topology.Uniform(2, 2, time.Millisecond, 20*time.Millisecond)
	spec.TraceCapacity = 0
	spec.Workload.CSPerProcess = math.MaxInt32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Build(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("Build at CSPerProcess %d allocated %d bytes, want under 1 MB", spec.Workload.CSPerProcess, got)
	}
	runtime.KeepAlive(r)
}

// FuzzBuild: Build returns an error or a Run, and never panics, whatever
// the Spec (fuzzSpec): a uniform grid of 1–4 clusters of 1–5 applications,
// a flat algorithm or a hierarchy of 2–4 registry algorithms with any group
// sizes, any jitter, loss and horizon, and any workload parameters, every
// critical-section count included: Build reserves nothing per critical
// section.
func FuzzBuild(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, clusters, apps, shape uint8, algs uint32, groups uint8,
		jitter, loss float64, horizon, alpha int64, rho float64, dist uint8, cs int64, hot uint8, skew float64) {
		spec := fuzzSpec(clusters, apps, shape, algs, groups, jitter, loss, horizon, alpha, rho, dist, cs, hot, skew)
		r, err := Build(spec)
		if (r == nil) == (err == nil) {
			t.Fatalf("Build(%+v) = %v, %v: want exactly one of a run and an error", spec, r, err)
		}
	})
}

// FuzzDrive: whatever Spec Build accepts drives to an Outcome — a stall or
// a monitor violation is an answer — and never panics. It takes FuzzBuild's
// inputs, with a legal critical-section count folded into 1–8 and a
// positive α floored at 1 ms, which bound how long the drive runs: the
// event limit grows with the count, and the liveness watchdog ticks every
// 2,000 α (or every 50 round trips of a slower grid).
func FuzzDrive(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, clusters, apps, shape uint8, algs uint32, groups uint8,
		jitter, loss float64, horizon, alpha int64, rho float64, dist uint8, cs int64, hot uint8, skew float64) {
		if cs > 0 && cs <= math.MaxInt32 {
			cs = 1 + cs%8
		}
		if alpha > 0 {
			alpha = max(alpha, int64(time.Millisecond))
		}
		spec := fuzzSpec(clusters, apps, shape, algs, groups, jitter, loss, horizon, alpha, rho, dist, cs, hot, skew)
		r, err := Build(spec)
		if err != nil {
			return
		}
		out := r.Drive()
		if out.Stall == nil && spec.Horizon == 0 && out.Grants != r.runner.ExpectedTotal() {
			t.Fatalf("Drive(%+v) completed with %d grants, want %d", spec, out.Grants, r.runner.ExpectedTotal())
		}
	})
}

// addFuzzSeeds adds the seed corpus FuzzBuild and FuzzDrive share: legal
// runs of each shape, each out-of-range float and count, and the
// non-finite floats Validate rejects.
func addFuzzSeeds(f *testing.F) {
	ms := int64(time.Millisecond)
	f.Add(uint8(2), uint8(3), uint8(0), uint32(2), uint8(0), 0.05, 0.0, int64(0), 5*ms, 6.0, uint8(0), int64(10), uint8(0), 0.0)
	f.Add(uint8(3), uint8(4), uint8(3), uint32(0x321), uint8(3), 0.05, 0.1, int64(time.Second), 5*ms, 0.5, uint8(1), int64(3), uint8(1), 4.0)
	f.Add(uint8(1), uint8(1), uint8(5), uint32(0x5432), uint8(0), 0.0, 0.0, int64(0), ms, 1.0, uint8(0), int64(1), uint8(0), 0.0)
	f.Add(uint8(2), uint8(2), uint8(0), uint32(1), uint8(0), -1.0, 0.0, int64(0), 5*ms, 6.0, uint8(0), int64(10), uint8(0), 0.0)
	f.Add(uint8(2), uint8(2), uint8(0), uint32(1), uint8(0), 0.0, 1.5, int64(0), 5*ms, 6.0, uint8(0), int64(10), uint8(0), 0.0)
	f.Add(uint8(2), uint8(2), uint8(0), uint32(1), uint8(0), math.NaN(), math.Inf(1), -ms, 5*ms, math.NaN(), uint8(9), int64(10), uint8(7), math.Inf(1))
	f.Add(uint8(2), uint8(2), uint8(0), uint32(1), uint8(0), 0.0, 0.0, int64(0), int64(0), -1.0, uint8(0), int64(1)<<31, uint8(0), -2.0)
	f.Add(uint8(0), uint8(0), uint8(1), uint32(0), uint8(0), 0.0, 0.0, int64(0), 5*ms, 6.0, uint8(0), int64(-1), uint8(0), 0.0)
	// Each non-finite float alone, and a jitter that stretches the 10 ms
	// one-way delay past the longest duration: at f612bf1 Validate passed
	// all six, and the drive panicked on the NaN rho and the two jitters.
	f.Add(uint8(1), uint8(1), uint8(0), uint32(2), uint8(0), 0.05, 0.0, int64(0), 10*ms, math.NaN(), uint8(0), int64(2), uint8(0), 0.0)
	f.Add(uint8(1), uint8(1), uint8(0), uint32(2), uint8(0), math.Inf(1), 0.0, int64(0), 10*ms, 180.0, uint8(0), int64(2), uint8(0), 0.0)
	f.Add(uint8(1), uint8(1), uint8(0), uint32(2), uint8(0), 1e300, 0.0, int64(0), 10*ms, 180.0, uint8(0), int64(2), uint8(0), 0.0)
	f.Add(uint8(1), uint8(1), uint8(0), uint32(2), uint8(0), math.NaN(), 0.0, int64(0), 10*ms, 180.0, uint8(0), int64(2), uint8(0), 0.0)
	f.Add(uint8(1), uint8(1), uint8(0), uint32(2), uint8(0), 0.05, math.NaN(), int64(0), 10*ms, 180.0, uint8(0), int64(2), uint8(0), 0.0)
	f.Add(uint8(1), uint8(1), uint8(0), uint32(2), uint8(0), 0.05, 0.0, int64(0), 10*ms, 180.0, uint8(0), int64(2), uint8(1), math.NaN())
	// Legal runs whose virtual time passes the largest Time: a β of 10^18
	// hours (with and without a horizon), and a jitter of 4·10^11 on the
	// 10 ms delay. At f612bf1 each drive panicked, "des: scheduling into
	// the past"; the clock now saturates.
	f.Add(uint8(1), uint8(1), uint8(0), uint32(2), uint8(0), 0.0, 0.0, int64(time.Second), int64(time.Hour), 1e18, uint8(0), int64(2), uint8(0), 0.0)
	f.Add(uint8(1), uint8(1), uint8(0), uint32(2), uint8(0), 0.0, 0.0, int64(0), int64(time.Hour), 1e18, uint8(1), int64(2), uint8(0), 0.0)
	f.Add(uint8(1), uint8(2), uint8(0), uint32(1), uint8(0), 4e11, 0.0, int64(0), ms, 0.0, uint8(0), int64(3), uint8(0), 0.0)
	// An α whose watchdog interval, 2,000 α, overflows.
	f.Add(uint8(1), uint8(1), uint8(0), uint32(2), uint8(0), 0.0, 0.0, int64(0), int64(1)<<62, 0.0, uint8(0), int64(2), uint8(0), 0.0)
}

// fuzzSpec turns the fuzzers' inputs into a Spec.
func fuzzSpec(clusters, apps, shape uint8, algs uint32, groups uint8,
	jitter, loss float64, horizon, alpha int64, rho float64, dist uint8, cs int64, hot uint8, skew float64) Spec {
	names := algorithms.Names()
	var sys System
	if levels := int(shape % 4); levels == 0 {
		sys.Flat = names[algs%uint32(len(names))]
	} else {
		for i := range levels + 1 {
			sys.Levels = append(sys.Levels, names[(algs>>(4*i)&15)%uint32(len(names))])
		}
		for i := range levels - 1 {
			sys.Groups = append(sys.Groups, int(groups>>(2*i)&3)-1) // -1 to 2
		}
	}
	return Spec{
		Grid: topology.Uniform(1+int(clusters%4), 1+int(apps%5)+sys.Reserved(),
			time.Millisecond, 20*time.Millisecond),
		Seed:   1,
		Jitter: jitter, Loss: loss, Horizon: time.Duration(horizon),
		Workload: workload.Params{
			Alpha: time.Duration(alpha), Rho: rho, Dist: workload.Distribution(dist),
			CSPerProcess: int(cs), HotCluster: int(hot%8) - 2, HotSkew: skew,
		},
		System: sys,
	}
}
