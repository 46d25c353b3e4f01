package algorithms_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/mutex"
	"gridmutex/internal/run"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

func TestNames(t *testing.T) {
	names := algorithms.Names()
	if len(names) != 6 {
		t.Fatalf("Names() = %v, want 6 algorithms", names)
	}
	for _, n := range names {
		if _, err := algorithms.Factory(n); err != nil {
			t.Errorf("canonical name %q not constructible: %v", n, err)
		}
	}
}

func TestAliases(t *testing.T) {
	for _, alias := range []string{"ring", "naimi-trehel", "suzuki-kasami", "ra"} {
		if _, err := algorithms.Factory(alias); err != nil {
			t.Errorf("alias %q rejected: %v", alias, err)
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := algorithms.Factory("maekawa"); err == nil {
		t.Fatal("Factory accepted an unknown name")
	}
	if _, err := algorithms.New("nope", mutex.Config{}); err == nil {
		t.Fatal("New accepted an unknown name")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, name := range algorithms.Names() {
		if _, err := algorithms.New(name, mutex.Config{}); err == nil {
			t.Errorf("%s: accepted an empty config", name)
		}
	}
}

// shape is one workload of a flat run: Nodes processes on one cluster,
// 2 ms apart, each making Reqs critical sections of CS with idle times
// uniform over [0, MaxThink].
type shape struct {
	Nodes, Reqs  int
	CS, MaxThink time.Duration
	Seed         int64
}

// spec is the run kernel's Spec for the named algorithm flat on s. Its
// event limit, nodes·reqs·1000 + 100,000 events without a grant, ends a
// livelocked run well before the kernel's default would.
func (s shape) spec(name string) run.Spec {
	return run.Spec{
		Grid: topology.Single(s.Nodes, 2*time.Millisecond),
		Seed: s.Seed,
		Workload: workload.Params{
			Alpha: s.CS, Rho: float64(s.MaxThink) / float64(2*s.CS),
			Dist: workload.Uniform, CSPerProcess: s.Reqs,
		},
		System:     run.System{Flat: name},
		EventLimit: uint64(s.Nodes*s.Reqs)*1000 + 100_000,
	}
}

// drive builds and drives spec, a flat run, and holds it to six checks:
// no grant while another process is in its CS (the kernel's safety
// monitor); State() == InCS and HoldsToken() at every grant; every request
// served; every instance in NoReq at the end; and one token holder at
// quiescence, or none for a permission-based algorithm. It returns the
// outcome and every failed check.
func drive(spec run.Spec) (run.Outcome, []string) {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	var r *run.Run
	sink := spec.OnGrant
	spec.OnGrant = func(rec workload.Record) {
		inst := r.Core.Apps[rec.ID].Instance
		if s := inst.State(); s != mutex.InCS {
			failf("node %d: granted in state %v", rec.ID, s)
		}
		if !inst.HoldsToken() {
			failf("node %d: in CS without holding the token", rec.ID)
		}
		if sink != nil {
			sink(rec)
		}
	}
	r, err := run.Build(spec)
	if err != nil {
		return run.Outcome{}, []string{err.Error()}
	}
	out := r.Drive()
	out.Monitor.AssertQuiescent()
	fails = append(fails, out.Monitor.Violations()...)
	if out.Stall != nil {
		failf("%v", out.Stall)
	}
	if want := spec.Grid.NumNodes() * spec.Workload.CSPerProcess; out.Grants != want {
		failf("granted %d critical sections, want %d", out.Grants, want)
	}
	holders := 0
	for _, a := range out.Core.Apps {
		if s := a.Instance.State(); s != mutex.NoReq {
			failf("node %d finished in state %v", a.ID, s)
		}
		if a.Instance.HoldsToken() {
			holders++
		}
	}
	want := 0
	if algorithms.TokenBased(spec.System.Flat) {
		want = 1
	}
	if holders != want {
		failf("%d token holders at quiescence, want exactly %d", holders, want)
	}
	return out, fails
}

// mustDrive is drive that fails the test on the first failed check.
func mustDrive(t testing.TB, spec run.Spec) run.Outcome {
	t.Helper()
	out, fails := drive(spec)
	if len(fails) > 0 {
		t.Fatalf("%d failed checks, the first: %s", len(fails), fails[0])
	}
	return out
}

// defaultShape is a medium-contention workload that finishes fast.
var defaultShape = shape{Nodes: 8, Reqs: 25, CS: 2 * time.Millisecond, MaxThink: 10 * time.Millisecond, Seed: 1}

// TestConformance runs every algorithm through the run kernel under
// several workload shapes.
func TestConformance(t *testing.T) {
	shapes := map[string]shape{
		"default":         defaultShape,
		"high-contention": {Nodes: 10, Reqs: 30, CS: time.Millisecond, MaxThink: 0, Seed: 2},
		"low-contention":  {Nodes: 10, Reqs: 10, CS: time.Millisecond, MaxThink: 200 * time.Millisecond, Seed: 3},
		"two-nodes":       {Nodes: 2, Reqs: 50, CS: time.Millisecond, MaxThink: 3 * time.Millisecond, Seed: 4},
		"single-node":     {Nodes: 1, Reqs: 20, CS: time.Millisecond, MaxThink: time.Millisecond, Seed: 5},
		"wide":            {Nodes: 40, Reqs: 5, CS: time.Millisecond, MaxThink: 20 * time.Millisecond, Seed: 6},
	}
	for _, name := range algorithms.Names() {
		for shapeName, s := range shapes {
			t.Run(name+"/"+shapeName, func(t *testing.T) {
				mustDrive(t, s.spec(name))
			})
		}
	}
}

// TestPropertyRandomWorkloads drives every algorithm with
// randomly-generated workloads; any failed check fails.
func TestPropertyRandomWorkloads(t *testing.T) {
	for _, name := range algorithms.Names() {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, rawNodes, rawReqs uint8, rawThink uint16) bool {
				s := shape{
					Nodes:    int(rawNodes%12) + 1,
					Reqs:     int(rawReqs%15) + 1,
					CS:       time.Millisecond,
					MaxThink: time.Duration(rawThink%30) * time.Millisecond,
					Seed:     seed,
				}
				if _, fails := drive(s.spec(name)); len(fails) > 0 {
					t.Logf("workload %+v failed: %v", s, fails[0])
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeterminism: one Spec driven twice must yield the same grant stream,
// event count and traffic counters for every algorithm.
func TestDeterminism(t *testing.T) {
	for _, name := range algorithms.Names() {
		t.Run(name, func(t *testing.T) {
			once := func() (run.Outcome, []workload.Record) {
				var grants []workload.Record
				spec := defaultShape.spec(name)
				spec.OnGrant = func(rec workload.Record) { grants = append(grants, rec) }
				return mustDrive(t, spec), grants
			}
			a, aGrants := once()
			b, bGrants := once()
			if !slices.Equal(aGrants, bGrants) {
				t.Fatalf("grant streams differ (%d and %d grants)", len(aGrants), len(bGrants))
			}
			if a.Events != b.Events {
				t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
			}
			if !reflect.DeepEqual(a.Counters, b.Counters) {
				t.Fatalf("counters differ: %+v vs %+v", a.Counters, b.Counters)
			}
		})
	}
}

// messagesPerCS is a run's mean message count per critical section.
func messagesPerCS(out run.Outcome) float64 {
	return float64(out.Counters.Messages) / float64(out.Grants)
}

// TestMessageComplexity checks the per-CS message costs against the
// complexities of section 2 of the paper.
func TestMessageComplexity(t *testing.T) {
	// The paper's per-CS complexities hold for isolated invocations, so
	// make the mean idle time enormous relative to ring traversal: with
	// 16 nodes and 1 ms hops, requests overlap only rarely.
	s := shape{Nodes: 16, Reqs: 8, CS: time.Millisecond, MaxThink: 5 * time.Second, Seed: 11}
	n := float64(s.Nodes)

	perCS := func(name string) float64 { return messagesPerCS(mustDrive(t, s.spec(name))) }

	// Suzuki-Kasami: exactly N messages per CS when the token moves
	// (N-1 requests + 1 token); fewer only when the holder re-enters.
	if got := perCS("suzuki"); got < n-2 || got > n {
		t.Errorf("suzuki: %.2f messages/CS, want ~%v", got, n)
	}
	// Martin: 2(x+1) with x uniform over ring distance: ~N on average.
	if got := perCS("martin"); got < 0.5*n || got > 1.5*n {
		t.Errorf("martin: %.2f messages/CS, want ~N=%v", got, n)
	}
	// Naimi-Trehel: O(log N) — allow generous constants but require
	// clearly sublinear behaviour.
	if got, bound := perCS("naimi"), 3*math.Log2(n); got > bound {
		t.Errorf("naimi: %.2f messages/CS, want O(log N) <= %.2f", got, bound)
	}
	// Raymond: O(log N) on the balanced tree (request+privilege per
	// edge of the path).
	if got, bound := perCS("raymond"), 4*math.Log2(n); got > bound {
		t.Errorf("raymond: %.2f messages/CS, want O(log N) <= %.2f", got, bound)
	}
	// Central: request, grant, release, plus at most one nudge per CS
	// when requests queue.
	if got := perCS("central"); got > 4 {
		t.Errorf("central: %.2f messages/CS, want <= 4", got)
	}
}

// BenchmarkAlgorithm measures full simulated runs per algorithm: the
// b.N loop re-executes 800 critical sections each iteration, and the
// reported metric is messages per CS.
func BenchmarkAlgorithm(b *testing.B) {
	s := shape{Nodes: 16, Reqs: 50, CS: time.Millisecond, MaxThink: 5 * time.Millisecond, Seed: 1}
	for _, name := range algorithms.Names() {
		b.Run(name, func(b *testing.B) {
			var out run.Outcome
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = mustDrive(b, s.spec(name))
			}
			b.ReportMetric(messagesPerCS(out), "msgs/CS")
		})
	}
}
