package topology

import (
	"testing"
	"time"
)

// treeSpec3 is the canonical three-level test tree: 2 regions x 3 zones x
// 2 clusters of 4 nodes = 12 clusters, 48 nodes.
func treeSpec3() TreeSpec {
	return TreeSpec{
		Fanouts:  []int{2, 3, 2},
		LeafSize: 4,
		LeafRTT:  100 * time.Microsecond,
		LevelRTT: []time.Duration{40 * time.Millisecond, 12 * time.Millisecond, 4 * time.Millisecond},
	}
}

// materialize builds the explicit matrix grid equivalent to a tree spec,
// the reference the factored model must match pairwise.
func materialize(t *testing.T, spec TreeSpec) *Grid {
	t.Helper()
	tree, err := NewTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := tree.NumClusters()
	names := make([]string, c)
	rtt := make([][]time.Duration, c)
	for i := 0; i < c; i++ {
		names[i] = tree.ClusterName(i)
		rtt[i] = make([]time.Duration, c)
		for j := 0; j < c; j++ {
			rtt[i][j] = tree.RTT(i, j)
		}
	}
	g, err := New(names, spec.LeafSize, rtt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTreeMatchesMaterialized: every accessor of the factored tree grid
// must agree with the explicit-matrix grid built from its own RTTs — the
// two representations are interchangeable everywhere a *Grid flows.
func TestTreeMatchesMaterialized(t *testing.T) {
	spec := treeSpec3()
	tree, err := NewTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	dense := materialize(t, spec)
	if tree.NumClusters() != 12 || tree.NumNodes() != 48 {
		t.Fatalf("tree has %d clusters, %d nodes; want 12, 48", tree.NumClusters(), tree.NumNodes())
	}
	if tree.NumNodes() != dense.NumNodes() || tree.NumClusters() != dense.NumClusters() {
		t.Fatal("dimension mismatch")
	}
	if tree.ClusterSize() != dense.ClusterSize() {
		t.Fatalf("cluster size %d vs %d", tree.ClusterSize(), dense.ClusterSize())
	}
	for c := 0; c < tree.NumClusters(); c++ {
		a, b := tree.NodesIn(c), dense.NodesIn(c)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cluster %d nodes differ at %d: %d vs %d", c, i, a[i], b[i])
			}
		}
	}
	for a := 0; a < tree.NumNodes(); a++ {
		if tree.ClusterOf(a) != dense.ClusterOf(a) {
			t.Fatalf("node %d cluster %d vs %d", a, tree.ClusterOf(a), dense.ClusterOf(a))
		}
		for b := 0; b < tree.NumNodes(); b++ {
			if tree.OneWay(a, b) != dense.OneWay(a, b) {
				t.Fatalf("OneWay(%d,%d) %v vs %v", a, b, tree.OneWay(a, b), dense.OneWay(a, b))
			}
		}
	}
}

// TestTreeLCALatency pins the level arithmetic directly: cluster pairs at
// each co-ancestry depth get that level's RTT.
func TestTreeLCALatency(t *testing.T) {
	tree, err := NewTree(treeSpec3())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b int
		want time.Duration
	}{
		{0, 0, 100 * time.Microsecond}, // same cluster
		{0, 1, 4 * time.Millisecond},   // siblings under one zone
		{0, 2, 12 * time.Millisecond},  // same region, different zones
		{0, 6, 40 * time.Millisecond},  // across the root
		{5, 6, 40 * time.Millisecond},  // adjacent indices, different regions
		{6, 7, 4 * time.Millisecond},
	}
	for _, c := range cases {
		if got := tree.RTT(c.a, c.b); got != c.want {
			t.Errorf("RTT(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := tree.RTT(c.b, c.a); got != c.want {
			t.Errorf("RTT(%d,%d) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestTreeClusterNames(t *testing.T) {
	tree, err := NewTree(treeSpec3())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[int]string{0: "t0.0.0", 1: "t0.0.1", 2: "t0.1.0", 6: "t1.0.0", 11: "t1.2.1"}
	for c, want := range cases {
		if got := tree.ClusterName(c); got != want {
			t.Errorf("ClusterName(%d) = %q, want %q", c, got, want)
		}
	}
}

func TestTreeValidation(t *testing.T) {
	base := treeSpec3()
	cases := []struct {
		name   string
		mutate func(*TreeSpec)
	}{
		{"no levels", func(s *TreeSpec) { s.Fanouts, s.LevelRTT = nil, nil }},
		{"mismatched RTTs", func(s *TreeSpec) { s.LevelRTT = s.LevelRTT[:2] }},
		{"fan-out one", func(s *TreeSpec) { s.Fanouts[1] = 1 }},
		{"fan-out zero", func(s *TreeSpec) { s.Fanouts[0] = 0 }},
		{"negative fan-out", func(s *TreeSpec) { s.Fanouts[2] = -2 }},
		{"zero level RTT", func(s *TreeSpec) { s.LevelRTT[1] = 0 }},
		{"negative level RTT", func(s *TreeSpec) { s.LevelRTT[0] = -time.Millisecond }},
		{"zero leaf size", func(s *TreeSpec) { s.LeafSize = 0 }},
		{"negative leaf RTT", func(s *TreeSpec) { s.LeafRTT = -time.Microsecond }},
		{"fan-out product overflows", func(s *TreeSpec) {
			s.Fanouts = []int{1 << 21, 1 << 21, 1 << 21, 1 << 21}
			s.LevelRTT = []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
		}},
		{"node count overflows", func(s *TreeSpec) {
			s.Fanouts = []int{1 << 31, 1 << 31}
			s.LevelRTT = []time.Duration{time.Millisecond, time.Millisecond}
			s.LeafSize = 4
		}},
	}
	for _, tc := range cases {
		spec := base
		spec.Fanouts = append([]int(nil), base.Fanouts...)
		spec.LevelRTT = append([]time.Duration(nil), base.LevelRTT...)
		tc.mutate(&spec)
		if _, err := NewTree(spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestTreeMemoryIsFlat: a tree grid's footprint must not scale with the
// cluster count — the whole point of the factored representation. A
// million-cluster tree must build instantly in O(levels) space.
func TestTreeMemoryIsFlat(t *testing.T) {
	tree, err := NewTree(TreeSpec{
		Fanouts:  []int{64, 128, 128},
		LeafSize: 1,
		LeafRTT:  100 * time.Microsecond,
		LevelRTT: []time.Duration{80 * time.Millisecond, 20 * time.Millisecond, 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tree.NumClusters(), 64*128*128; got != want {
		t.Fatalf("%d clusters, want %d", got, want)
	}
	// Spot-check latencies at the extremes without touching all pairs.
	if got := tree.RTT(0, tree.NumClusters()-1); got != 80*time.Millisecond {
		t.Fatalf("far RTT %v", got)
	}
	if got := tree.RTT(0, 1); got != 5*time.Millisecond {
		t.Fatalf("near RTT %v", got)
	}
}
