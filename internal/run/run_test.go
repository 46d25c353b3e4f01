package run

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

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
				first := mustDrive(t, spec)
				if first.Stall != nil {
					t.Fatalf("stalled: %v", first.Stall)
				}
				// Stopping the detectors at the horizon stops a recovery
				// deployment's members too, so its drain grants nothing
				// more; every other combination runs to completion.
				want, got := s.clusters*4*10, len(first.Records)
				if partial := recovery && m.horizon > 0; got > want || got == 0 || (got < want && !partial) {
					t.Fatalf("%d grants, want %d", got, want)
				}
				first.Monitor.AssertQuiescent()
				if !first.Monitor.Ok() {
					t.Fatalf("violations: %v", first.Monitor.Violations())
				}
				if (first.Recovery != nil) != recovery || (first.Core == nil) != recovery {
					t.Fatalf("wrong deployment kind: core %v recovery %v", first.Core != nil, first.Recovery != nil)
				}
				// Per-kind counters are on exactly when there are detectors
				// whose traffic to report.
				if (first.Counters.ByKind != nil) != recovery {
					t.Fatalf("ByKind %v on a run with recovery=%v", first.Counters.ByKind, recovery)
				}
				if first.Trace == "" {
					t.Fatal("empty trace; TraceCapacity not wired through")
				}
				second := mustDrive(t, spec)
				if first.Trace != second.Trace {
					t.Errorf("same seed produced different traces:\n%s", firstDiff(first.Trace, second.Trace))
				}
				if !reflect.DeepEqual(first.Records, second.Records) {
					t.Error("same seed produced different workload records")
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

// driveBoth drives spec twice, once with the record buffer and once with a
// grant sink (Spec.OnGrant), and holds the two to one outcome: the same
// stall, grant count and event count, and the sink seeing exactly the
// buffered records. It returns the buffered outcome.
func driveBoth(t *testing.T, spec Spec) Outcome {
	t.Helper()
	out := mustDrive(t, spec)
	if out.Grants != len(out.Records) {
		t.Fatalf("buffered: Grants %d, %d records", out.Grants, len(out.Records))
	}
	var sunk []workload.Record
	spec.OnGrant = func(r workload.Record) { sunk = append(sunk, r) }
	streamed := mustDrive(t, spec)
	if streamed.Records != nil {
		t.Fatalf("with a sink: %d records buffered", len(streamed.Records))
	}
	if !reflect.DeepEqual(streamed.Stall, out.Stall) {
		t.Fatalf("stall with a sink %+v, without %+v", streamed.Stall, out.Stall)
	}
	if streamed.Grants != out.Grants || streamed.Events != out.Events {
		t.Fatalf("with a sink: %d grants and %d events, without: %d and %d",
			streamed.Grants, streamed.Events, out.Grants, out.Events)
	}
	if !slices.Equal(sunk, out.Records) {
		t.Fatal("the sink saw other grants than the buffer holds")
	}
	return out
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
		if len(out.Records) != want {
			t.Errorf("coordinator=%v: %d grants, want %d", coordinator, len(out.Records), want)
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
	out := driveBoth(t, sparseRecovery(2))
	if out.Stall != nil {
		t.Fatalf("stalled after %d events: %v", out.Events, out.Stall)
	}
	if len(out.Records) != 8 {
		t.Fatalf("%d grants, want 8", len(out.Records))
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
	out := driveBoth(t, spec)
	var exceeded des.MaxEventsExceeded
	if out.Stall == nil || out.Stall.Kind != NoDrain || !errors.As(out.Stall.Err, &exceeded) {
		t.Fatalf("stall %+v, want NoDrain on the event cap", out.Stall)
	}
	if out.Stall.Outstanding == 0 {
		t.Error("stalled with nothing outstanding")
	}
	if len(out.Records) == 0 {
		t.Fatal("the healthy clusters never granted")
	}
	// A twin run stopped at the last grant's instant counts the events up
	// to it.
	twin, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	twin.runner.Start()
	twin.sim.RunUntil(out.Records[len(out.Records)-1].AcquiredAt)
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
	out := driveBoth(t, spec)
	if out.Stall == nil || out.Stall.Kind != Unsatisfied || out.Stall.Outstanding == 0 {
		t.Fatalf("stall %+v, want Unsatisfied with requests outstanding", out.Stall)
	}
	if out.Monitor.Ok() {
		t.Error("the liveness watchdog reported nothing")
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
	out := driveBoth(t, spec)
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
