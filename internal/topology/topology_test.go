package topology

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestGrid5000Shape(t *testing.T) {
	g := Grid5000(20)
	if g.NumClusters() != 9 {
		t.Fatalf("NumClusters = %d, want 9", g.NumClusters())
	}
	if g.NumNodes() != 180 {
		t.Fatalf("NumNodes = %d, want 180", g.NumNodes())
	}
	if g.ClusterSize() != 20 {
		t.Errorf("cluster size %d, want 20", g.ClusterSize())
	}
}

// Spot-check values straight out of Figure 3 of the paper.
func TestGrid5000Figure3Values(t *testing.T) {
	g := Grid5000(20)
	idx := map[string]int{}
	for c := 0; c < g.NumClusters(); c++ {
		idx[g.ClusterName(c)] = c
	}
	checks := []struct {
		from, to string
		want     time.Duration
	}{
		{"orsay", "orsay", 34 * time.Microsecond},
		{"orsay", "nancy", 95282 * time.Microsecond},
		{"nancy", "toulouse", 98398 * time.Microsecond},
		{"lille", "lille", 1 * time.Microsecond},
		{"toulouse", "bordeaux", 3131 * time.Microsecond},
		{"bordeaux", "toulouse", 3150 * time.Microsecond},
		{"sophia", "orsay", 20332 * time.Microsecond},
		{"grenoble", "lyon", 3293 * time.Microsecond},
	}
	for _, c := range checks {
		if got := g.RTT(idx[c.from], idx[c.to]); got != c.want {
			t.Errorf("RTT(%s,%s) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestGrid5000Asymmetry(t *testing.T) {
	// The measured matrix is not symmetric; make sure we did not
	// accidentally symmetrize it.
	g := Grid5000(1)
	if g.RTT(0, 1) == g.RTT(1, 0) {
		t.Error("orsay<->grenoble RTTs should differ (15.039 vs 14.976 ms)")
	}
}

func TestClusterMajorNumbering(t *testing.T) {
	g := Grid5000(20)
	for c := 0; c < g.NumClusters(); c++ {
		nodes := g.NodesIn(c)
		if len(nodes) != 20 {
			t.Fatalf("cluster %d: %d nodes", c, len(nodes))
		}
		for i, n := range nodes {
			if want := c*20 + i; n != want {
				t.Fatalf("cluster %d node %d = %d, want %d", c, i, n, want)
			}
			if g.ClusterOf(n) != c {
				t.Fatalf("ClusterOf(%d) = %d, want %d", n, g.ClusterOf(n), c)
			}
		}
	}
}

func TestOneWayIsHalfRTT(t *testing.T) {
	g := Grid5000(20)
	// node 0 is in orsay, node 100 is in nancy (cluster 5).
	if got, want := g.OneWay(0, 100), 95282*time.Microsecond/2; got != want {
		t.Errorf("OneWay(orsay,nancy) = %v, want %v", got, want)
	}
	if got, want := g.OneWay(0, 1), 17*time.Microsecond; got != want {
		t.Errorf("OneWay within orsay = %v, want %v", got, want)
	}
}

func TestSameCluster(t *testing.T) {
	g := Grid5000(20)
	if g.ClusterOf(0) != g.ClusterOf(19) {
		t.Error("nodes 0 and 19 should share a cluster")
	}
	if g.ClusterOf(19) == g.ClusterOf(20) {
		t.Error("nodes 19 and 20 should be in different clusters")
	}
}

func TestUniform(t *testing.T) {
	g := Uniform(3, 4, time.Millisecond, 10*time.Millisecond)
	if g.NumNodes() != 12 {
		t.Fatalf("NumNodes = %d, want 12", g.NumNodes())
	}
	if got := g.OneWay(0, 3); got != 500*time.Microsecond {
		t.Errorf("intra one-way = %v, want 0.5ms", got)
	}
	if got := g.OneWay(0, 4); got != 5*time.Millisecond {
		t.Errorf("inter one-way = %v, want 5ms", got)
	}
}

func TestSingle(t *testing.T) {
	g := Single(7, 2*time.Millisecond)
	if g.NumClusters() != 1 || g.NumNodes() != 7 {
		t.Fatalf("Single(7) = %d clusters, %d nodes", g.NumClusters(), g.NumNodes())
	}
	if got := g.OneWay(2, 5); got != time.Millisecond {
		t.Errorf("one-way = %v, want 1ms", got)
	}
}

// TestMaxRTT: the timeout scale equals the maximum of RTT(a, b) over all
// cluster pairs on every grid representation, and never falls under 1 ms.
func TestMaxRTT(t *testing.T) {
	ms := time.Millisecond
	asym, err := New([]string{"a", "b"}, 1, [][]time.Duration{{ms, 7 * ms}, {30 * ms, 2 * ms}})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewTree(treeSpec3())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *Grid
		want time.Duration
	}{
		{"grid5000", Grid5000(1), 98398 * time.Microsecond},
		{"uniform", Uniform(3, 2, ms, 20*ms), 20 * ms},
		{"asymmetric", asym, 30 * ms},
		{"tree", tree, 40 * ms},
	}
	for _, c := range cases {
		var pairs time.Duration
		for a := 0; a < c.g.NumClusters(); a++ {
			for b := 0; b < c.g.NumClusters(); b++ {
				if d := c.g.RTT(a, b); d > pairs {
					pairs = d
				}
			}
		}
		if got := c.g.MaxRTT(); got != c.want || got != pairs {
			t.Errorf("%s: MaxRTT = %v, want %v (maximum over pairs %v)", c.name, got, c.want, pairs)
		}
	}
	if got := Single(4, 100*time.Microsecond).MaxRTT(); got != ms {
		t.Errorf("sub-millisecond grid: MaxRTT = %v, want the 1ms floor", got)
	}
}

func TestNewValidation(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name  string
		names []string
		size  int
		rtt   [][]time.Duration
	}{
		{"no clusters", nil, 1, nil},
		{"ragged matrix", []string{"a", "b"}, 1, [][]time.Duration{{ms, ms}, {ms}}},
		{"zero size", []string{"a"}, 0, [][]time.Duration{{ms}}},
		{"negative size", []string{"a"}, -3, [][]time.Duration{{ms}}},
		{"node count overflows int", []string{"a", "b"}, math.MaxInt/2 + 1, [][]time.Duration{{ms, ms}, {ms, ms}}},
		{"negative latency", []string{"a"}, 1, [][]time.Duration{{-ms}}},
		{"missing rows", []string{"a", "b"}, 1, [][]time.Duration{{ms, ms}}},
		{"extra rows", []string{"a"}, 1, [][]time.Duration{{ms}, {ms}}},
	}
	for _, c := range cases {
		if _, err := New(c.names, c.size, c.rtt); err == nil {
			t.Errorf("%s: New accepted invalid input", c.name)
		}
	}
}

// Property: in any uniform grid, OneWay is symmetric and respects the
// intra/inter split implied by cluster membership.
func TestPropertyUniformLatencies(t *testing.T) {
	f := func(rawClusters, rawSize uint8, a, b uint16) bool {
		clusters := int(rawClusters%5) + 1
		size := int(rawSize%6) + 1
		g := Uniform(clusters, size, time.Millisecond, 20*time.Millisecond)
		n := g.NumNodes()
		na, nb := int(a)%n, int(b)%n
		ow := g.OneWay(na, nb)
		if ow != g.OneWay(nb, na) {
			return false
		}
		if g.ClusterOf(na) == g.ClusterOf(nb) {
			return ow == 500*time.Microsecond
		}
		return ow == 10*time.Millisecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: on a grid from every constructor, cluster c's i-th node is
// c·ClusterSize()+i, and ClusterOf maps every node back to its cluster.
// The sizes and shapes are enumerated, not sampled.
func TestPropertyClusterMajorLayout(t *testing.T) {
	ms := time.Millisecond
	matrix := &Matrix{Names: []string{"a", "b", "c"}, RTT: [][]time.Duration{{ms, 2 * ms, 3 * ms}, {2 * ms, ms, 4 * ms}, {3 * ms, 4 * ms, ms}}}
	for size := 1; size <= 6; size++ {
		for k := 2; k <= 4; k++ {
			tree, err := NewTree(TreeSpec{Fanouts: []int{2, k}, LeafSize: size, LevelRTT: []time.Duration{9 * ms, 3 * ms}})
			if err != nil {
				t.Fatal(err)
			}
			dense, err := matrix.Grid(size)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []*Grid{Grid5000(size), Uniform(k-1, size, ms, 8*ms), dense, tree} {
				if g.ClusterSize() != size || g.NumNodes() != g.NumClusters()*size {
					t.Fatalf("%d clusters of size %d, %d nodes; want size %d", g.NumClusters(), g.ClusterSize(), g.NumNodes(), size)
				}
				for c := 0; c < g.NumClusters(); c++ {
					nodes := g.NodesIn(c)
					if len(nodes) != size {
						t.Fatalf("size %d: cluster %d has %d nodes", size, c, len(nodes))
					}
					for i, n := range nodes {
						if n != c*size+i || g.ClusterOf(n) != c {
							t.Fatalf("size %d: cluster %d node %d is %d in cluster %d", size, c, i, n, g.ClusterOf(n))
						}
					}
				}
			}
		}
	}
}
