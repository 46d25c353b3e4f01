// Package topology models the physical layout of a grid: a federation of
// clusters whose intra-cluster links are fast (LAN) and whose inter-cluster
// links are slow and heterogeneous (WAN).
//
// Latencies are specified as cluster-to-cluster round-trip times, matching
// how the paper reports them (Figure 3); message transmission uses the
// one-way delay RTT/2.
package topology

import (
	"errors"
	"fmt"
	"time"
)

// Grid describes a federation of clusters of one size. Nodes carry global
// indices in cluster-major order: cluster c owns nodes [c·size, (c+1)·size).
type Grid struct {
	names    []string
	size     int
	clusters int
	rtt      [][]time.Duration
	// tree, when non-nil, replaces names and rtt: cluster names and
	// latencies derive arithmetically from the hierarchical spec (see
	// NewTree), costing O(levels) memory however many clusters the
	// fan-out product yields.
	tree *treeModel
}

// New builds a grid from cluster names, the node count of every cluster
// and a cluster-to-cluster RTT matrix. The matrix need not be symmetric
// (real routes rarely are); rtt[i][i] is the intra-cluster RTT.
func New(names []string, size int, rtt [][]time.Duration) (*Grid, error) {
	n := len(names)
	if n == 0 {
		return nil, errors.New("topology: no clusters")
	}
	if len(rtt) != n {
		return nil, fmt.Errorf("topology: got %d names, %d matrix rows", n, len(rtt))
	}
	if _, ok := mulInt(n, size); size <= 0 || !ok {
		return nil, fmt.Errorf("topology: %d clusters of size %d", n, size)
	}
	g := &Grid{
		names:    append([]string(nil), names...),
		size:     size,
		clusters: n,
		rtt:      make([][]time.Duration, n),
	}
	for i, row := range rtt {
		if len(row) != n {
			return nil, fmt.Errorf("topology: matrix row %d has %d entries, want %d", i, len(row), n)
		}
		for j, d := range row {
			if d < 0 {
				return nil, fmt.Errorf("topology: negative RTT %v between %s and %s", d, names[i], names[j])
			}
		}
		g.rtt[i] = append([]time.Duration(nil), row...)
	}
	return g, nil
}

// NumClusters returns the number of clusters in the grid.
func (g *Grid) NumClusters() int { return g.clusters }

// NumNodes returns the total number of nodes across all clusters.
func (g *Grid) NumNodes() int { return g.clusters * g.size }

// ClusterName returns the name of cluster c.
func (g *Grid) ClusterName(c int) string {
	if g.tree != nil {
		return g.tree.clusterName(c)
	}
	return g.names[c]
}

// ClusterSize returns the number of nodes in every cluster.
func (g *Grid) ClusterSize() int { return g.size }

// ClusterOf returns the cluster owning global node index n.
func (g *Grid) ClusterOf(n int) int { return n / g.size }

// NodesIn returns the global node indices of cluster c in ascending order.
func (g *Grid) NodesIn(c int) []int {
	out := make([]int, g.size)
	for i := range out {
		out[i] = c*g.size + i
	}
	return out
}

// RTT returns the round-trip latency between clusters a and b as measured
// from a.
func (g *Grid) RTT(a, b int) time.Duration {
	if g.tree != nil {
		return g.tree.rtt(a, b)
	}
	return g.rtt[a][b]
}

// MaxRTT returns the largest round trip between any two clusters (a
// cluster's own included), and at least 1 ms — the scale retransmission
// and failure-detector timeouts derive from. A tree grid reads it off its
// O(levels) spec: every level has at least two children, so every level's
// RTT separates some pair.
func (g *Grid) MaxRTT() time.Duration {
	max := time.Millisecond
	rows := g.rtt
	if g.tree != nil {
		rows = [][]time.Duration{{g.tree.spec.LeafRTT}, g.tree.spec.LevelRTT}
	}
	for _, row := range rows {
		for _, d := range row {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// OneWay returns the modeled one-way message delay between two global node
// indices: half the RTT between their clusters.
func (g *Grid) OneWay(from, to int) time.Duration {
	return g.RTT(g.ClusterOf(from), g.ClusterOf(to)) / 2
}

// grid5000Names lists the 9 Grid'5000 sites used in the paper's evaluation.
var grid5000Names = []string{
	"orsay", "grenoble", "lyon", "rennes", "lille", "nancy", "toulouse", "sophia", "bordeaux",
}

// grid5000RTTMicros is the Figure 3 RTT matrix, in microseconds (the paper
// prints milliseconds with three decimals). Row = from, column = to.
var grid5000RTTMicros = [9][9]int64{
	{34, 15039, 9128, 8881, 4489, 95282, 15556, 20239, 7900},
	{14976, 66, 3293, 15269, 12954, 13246, 10582, 9904, 16288},
	{9136, 3309, 26, 12672, 10377, 10634, 7956, 7289, 10078},
	{8913, 15258, 12617, 59, 11269, 11654, 19911, 19224, 8114},
	{10000, 10001, 10001, 10001, 1, 10001, 20000, 20001, 10001},
	{5657, 13279, 10623, 11679, 9228, 32, 98398, 17215, 12827},
	{15547, 10586, 7934, 19888, 19102, 17886, 43, 14540, 3131},
	{20332, 9889, 7254, 19215, 16811, 17238, 14529, 51, 10629},
	{7925, 16338, 10043, 8129, 10845, 12795, 3150, 10640, 45},
}

// Grid5000 returns the paper's experimental platform: the 9 clusters of
// Figure 3 with nodesPerCluster nodes each (the paper uses 20, for 180
// application processes).
func Grid5000(nodesPerCluster int) *Grid {
	rtt := make([][]time.Duration, len(grid5000Names))
	for i := range grid5000Names {
		row := make([]time.Duration, len(grid5000Names))
		for j, us := range grid5000RTTMicros[i] {
			row[j] = time.Duration(us) * time.Microsecond
		}
		rtt[i] = row
	}
	g, err := New(grid5000Names, nodesPerCluster, rtt)
	if err != nil {
		panic("topology: invalid built-in Grid5000 matrix: " + err.Error())
	}
	return g
}

// Uniform returns a synthetic grid of clusters clusters with size nodes
// each, localRTT within every cluster and remoteRTT between any two distinct
// clusters. Useful for tests and scalability sweeps where Grid'5000's
// heterogeneity would obscure the effect under study.
func Uniform(clusters, size int, localRTT, remoteRTT time.Duration) *Grid {
	names := make([]string, clusters)
	rtt := make([][]time.Duration, clusters)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
		row := make([]time.Duration, clusters)
		for j := range row {
			if i == j {
				row[j] = localRTT
			} else {
				row[j] = remoteRTT
			}
		}
		rtt[i] = row
	}
	g, err := New(names, size, rtt)
	if err != nil {
		panic("topology: invalid uniform grid: " + err.Error())
	}
	return g
}

// Single returns a one-cluster grid of size nodes with the given local RTT.
// It lets a plain (non-composed) algorithm run on the simulated network.
func Single(size int, localRTT time.Duration) *Grid {
	return Uniform(1, size, localRTT, 0)
}
