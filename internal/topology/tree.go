package topology

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// TreeSpec describes a synthetic hierarchical topology as a balanced tree
// of switching levels: a root whose Fanouts[0] children are regions, each
// region split into Fanouts[1] zones, and so on down to leaf clusters of
// LeafSize nodes. Latency between two nodes is a function of the deepest
// tree level their clusters share — exactly how structured platforms
// (region → zone → rack) behave — so the topology needs no explicit
// cluster-to-cluster matrix: RTT(a, b) is computed from cluster indices in
// O(levels) and the whole grid costs O(levels) memory regardless of how
// many clusters the fan-out product yields.
type TreeSpec struct {
	// Fanouts lists the children per internal tree level, root first. The
	// product of all fan-outs is the number of leaf clusters.
	Fanouts []int
	// LeafSize is the number of nodes in every leaf cluster.
	LeafSize int
	// LeafRTT is the round-trip time between nodes of one cluster.
	LeafRTT time.Duration
	// LevelRTT[i] is the round-trip time between nodes whose lowest common
	// ancestor sits at depth i: LevelRTT[0] applies to traffic crossing the
	// root, LevelRTT[len-1] to traffic between sibling clusters. It must
	// have exactly one entry per fan-out level.
	LevelRTT []time.Duration
}

// Levels returns the number of internal switching levels.
func (s TreeSpec) Levels() int { return len(s.Fanouts) }

// Clusters returns the number of leaf clusters (the fan-out product), or
// an error when the product overflows int.
func (s TreeSpec) Clusters() (int, error) {
	c := 1
	for i, f := range s.Fanouts {
		p, ok := mulInt(c, f)
		if !ok {
			return 0, fmt.Errorf("topology: tree fan-out product overflows int at level %d (%v)", i, s.Fanouts)
		}
		c = p
	}
	return c, nil
}

// Validate checks the spec without building a grid.
func (s TreeSpec) Validate() error {
	if len(s.Fanouts) == 0 {
		return fmt.Errorf("topology: tree needs at least one fan-out level")
	}
	if len(s.LevelRTT) != len(s.Fanouts) {
		return fmt.Errorf("topology: %d level RTTs for %d fan-out levels", len(s.LevelRTT), len(s.Fanouts))
	}
	for i, f := range s.Fanouts {
		if f < 2 {
			return fmt.Errorf("topology: tree fan-out %d at level %d (want >= 2; a one-child level adds nothing)", f, i)
		}
	}
	for i, d := range s.LevelRTT {
		if d <= 0 {
			return fmt.Errorf("topology: tree level %d RTT %v (inter-cluster links need positive latency)", i, d)
		}
	}
	if s.LeafSize <= 0 {
		return fmt.Errorf("topology: tree leaf size %d", s.LeafSize)
	}
	if s.LeafRTT < 0 {
		return fmt.Errorf("topology: negative leaf RTT %v", s.LeafRTT)
	}
	clusters, err := s.Clusters()
	if err != nil {
		return err
	}
	if _, ok := mulInt(clusters, s.LeafSize); !ok {
		return fmt.Errorf("topology: %d clusters x %d nodes overflows int", clusters, s.LeafSize)
	}
	return nil
}

// treeModel is the factored latency model a tree grid dispatches to
// instead of materialized name and RTT tables.
type treeModel struct {
	spec TreeSpec
	// strides[i] is the number of leaf clusters under one subtree rooted
	// at depth i+1 — the divisor extracting the level-i digit of a cluster
	// index. strides[len-1] is always 1.
	strides []int
}

// NewTree builds a grid from a hierarchical spec. The grid behaves exactly
// like one built from the equivalent explicit matrix — same node indexing,
// same accessors — but stores O(levels) latency state instead of O(C²).
func NewTree(spec TreeSpec) (*Grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	clusters, err := spec.Clusters()
	if err != nil {
		return nil, err
	}
	t := &treeModel{
		spec: TreeSpec{
			Fanouts:  append([]int(nil), spec.Fanouts...),
			LeafSize: spec.LeafSize,
			LeafRTT:  spec.LeafRTT,
			LevelRTT: append([]time.Duration(nil), spec.LevelRTT...),
		},
		strides: make([]int, len(spec.Fanouts)),
	}
	stride := 1
	for i := len(spec.Fanouts) - 1; i >= 0; i-- {
		t.strides[i] = stride
		stride *= spec.Fanouts[i]
	}
	return &Grid{size: spec.LeafSize, clusters: clusters, tree: t}, nil
}

// rtt returns the round trip between leaf clusters a and b: the RTT of
// the deepest level both share, found by comparing cluster-index prefixes
// top-down.
func (t *treeModel) rtt(a, b int) time.Duration {
	if a == b {
		return t.spec.LeafRTT
	}
	for i, s := range t.strides {
		if a/s != b/s {
			return t.spec.LevelRTT[i]
		}
	}
	// Unreachable: a != b always differ at the last level (stride 1).
	return t.spec.LevelRTT[len(t.spec.LevelRTT)-1]
}

// clusterName renders the root-to-leaf digit path of cluster c, e.g.
// "t0.2.1" for child 1 of zone 2 of region 0.
func (t *treeModel) clusterName(c int) string {
	var b strings.Builder
	b.WriteByte('t')
	for i, s := range t.strides {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(c / s % t.spec.Fanouts[i]))
	}
	return b.String()
}

// mulInt multiplies two non-negative ints, reporting false on overflow.
func mulInt(a, b int) (int, bool) {
	if a < 0 || b < 0 {
		return 0, false
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}
