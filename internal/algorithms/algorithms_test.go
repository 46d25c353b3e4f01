package algorithms

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"gridmutex/internal/algorithms/algotest"
	"gridmutex/internal/mutex"
)

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("Names() = %v, want 6 algorithms", names)
	}
	for _, n := range names {
		if _, err := Factory(n); err != nil {
			t.Errorf("canonical name %q not constructible: %v", n, err)
		}
	}
}

func TestAliases(t *testing.T) {
	for _, alias := range []string{"ring", "naimi-trehel", "suzuki-kasami", "ra"} {
		if _, err := Factory(alias); err != nil {
			t.Errorf("alias %q rejected: %v", alias, err)
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := Factory("maekawa"); err == nil {
		t.Fatal("Factory accepted an unknown name")
	}
	if _, err := New("nope", mutex.Config{}); err == nil {
		t.Fatal("New accepted an unknown name")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, name := range Names() {
		if _, err := New(name, mutex.Config{}); err == nil {
			t.Errorf("%s: accepted an empty config", name)
		}
	}
}

// factoryFor returns a mutex.Factory for the named algorithm, failing the
// test on registry errors.
func factoryFor(t *testing.T, name string) mutex.Factory {
	t.Helper()
	f, err := Factory(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestConformance runs every algorithm through the shared safety/liveness
// driver under several workload shapes.
func TestConformance(t *testing.T) {
	shapes := map[string]algotest.Workload{
		"default": algotest.DefaultWorkload(),
		"high-contention": {
			Nodes: 10, RequestsPerNode: 30, CS: time.Millisecond,
			MaxThink: 0, Seed: 2, LocalRTT: 2 * time.Millisecond,
		},
		"low-contention": {
			Nodes: 10, RequestsPerNode: 10, CS: time.Millisecond,
			MaxThink: 200 * time.Millisecond, Seed: 3, LocalRTT: 2 * time.Millisecond,
		},
		"two-nodes": {
			Nodes: 2, RequestsPerNode: 50, CS: time.Millisecond,
			MaxThink: 3 * time.Millisecond, Seed: 4, LocalRTT: 2 * time.Millisecond,
		},
		"single-node": {
			Nodes: 1, RequestsPerNode: 20, CS: time.Millisecond,
			MaxThink: time.Millisecond, Seed: 5, LocalRTT: 2 * time.Millisecond,
		},
		"wide": {
			Nodes: 40, RequestsPerNode: 5, CS: time.Millisecond,
			MaxThink: 20 * time.Millisecond, Seed: 6, LocalRTT: 2 * time.Millisecond,
		},
	}
	for _, name := range Names() {
		factory := factoryFor(t, name)
		for shapeName, w := range shapes {
			w.PermissionBased = !TokenBased(name)
			t.Run(name+"/"+shapeName, func(t *testing.T) {
				algotest.Run(factory, w, t.Fatalf)
			})
		}
	}
}

// TestPropertyRandomWorkloads drives every algorithm with
// randomly-generated workloads; any safety or liveness violation fails.
func TestPropertyRandomWorkloads(t *testing.T) {
	for _, name := range Names() {
		factory := factoryFor(t, name)
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, rawNodes, rawReqs uint8, rawThink uint16) bool {
				w := algotest.Workload{
					Nodes:           int(rawNodes%12) + 1,
					RequestsPerNode: int(rawReqs%15) + 1,
					CS:              time.Millisecond,
					MaxThink:        time.Duration(rawThink%30) * time.Millisecond,
					Seed:            seed,
					LocalRTT:        2 * time.Millisecond,
					PermissionBased: !TokenBased(name),
				}
				var c algotest.Collector
				algotest.Run(factory, w, c.Fail)
				if len(c.Failures) > 0 {
					t.Logf("workload %+v failed: %v", w, c.Failures[0])
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

// TestDeterminism: identical seeds must yield identical CS orders and
// message counts for every algorithm.
func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		factory := factoryFor(t, name)
		t.Run(name, func(t *testing.T) {
			w := algotest.DefaultWorkload()
			w.PermissionBased = !TokenBased(name)
			a := algotest.Run(factory, w, t.Fatalf)
			b := algotest.Run(factory, w, t.Fatalf)
			if a.Counters.Messages != b.Counters.Messages {
				t.Fatalf("message counts differ: %d vs %d", a.Counters.Messages, b.Counters.Messages)
			}
			if len(a.Order) != len(b.Order) {
				t.Fatalf("order lengths differ")
			}
			for i := range a.Order {
				if a.Order[i] != b.Order[i] {
					t.Fatalf("CS order diverges at %d: %d vs %d", i, a.Order[i], b.Order[i])
				}
			}
		})
	}
}

// TestMessageComplexity checks the per-CS message costs against the
// complexities of section 2 of the paper.
func TestMessageComplexity(t *testing.T) {
	// The paper's per-CS complexities hold for isolated invocations, so
	// make the mean idle time enormous relative to ring traversal: with
	// 16 nodes and 1 ms hops, requests overlap only rarely.
	w := algotest.Workload{
		Nodes: 16, RequestsPerNode: 8, CS: time.Millisecond,
		MaxThink: 5 * time.Second, Seed: 11, LocalRTT: 2 * time.Millisecond,
	}
	n := float64(w.Nodes)

	perCS := func(name string) float64 {
		res := algotest.Run(factoryFor(t, name), w, t.Fatalf)
		return res.MessagesPerCS()
	}

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

// TestSuzukiTokenDominatesBytes: Suzuki's token is O(N) bytes, so its byte
// traffic per CS must grow faster with N than Naimi's.
func TestByteAccountingGrowsWithN(t *testing.T) {
	bytesPerCS := func(name string, nodes int) float64 {
		w := algotest.Workload{
			Nodes: nodes, RequestsPerNode: 5, CS: time.Millisecond,
			MaxThink: 100 * time.Millisecond, Seed: 21, LocalRTT: 2 * time.Millisecond,
		}
		res := algotest.Run(factoryFor(t, name), w, t.Fatalf)
		return float64(res.Counters.Bytes) / float64(res.Grants)
	}
	suzukiGrowth := bytesPerCS("suzuki", 40) / bytesPerCS("suzuki", 10)
	naimiGrowth := bytesPerCS("naimi", 40) / bytesPerCS("naimi", 10)
	if suzukiGrowth <= naimiGrowth {
		t.Errorf("suzuki byte growth %.2fx not above naimi %.2fx", suzukiGrowth, naimiGrowth)
	}
}
