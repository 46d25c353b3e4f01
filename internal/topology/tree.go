package topology

import (
	"fmt"
	"io"
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
// instead of materialized name/cluster/RTT tables.
type treeModel struct {
	spec TreeSpec
	// strides[i] is the number of leaf clusters under one subtree rooted
	// at depth i+1 — the divisor extracting the level-i digit of a cluster
	// index. strides[len-1] is always 1.
	strides  []int
	clusters int
}

// NewTree builds a grid from a hierarchical spec. The grid behaves exactly
// like one built from the equivalent explicit matrix — same node indexing,
// same accessors — but stores O(levels) latency state instead of O(C²),
// and O(1) node→cluster state instead of O(N): cluster membership is pure
// arithmetic on the balanced layout.
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
		strides:  make([]int, len(spec.Fanouts)),
		clusters: clusters,
	}
	stride := 1
	for i := len(spec.Fanouts) - 1; i >= 0; i-- {
		t.strides[i] = stride
		stride *= spec.Fanouts[i]
	}
	return &Grid{tree: t, total: clusters * spec.LeafSize}, nil
}

// Tree returns the spec of a tree-built grid, or false for matrix grids.
func (g *Grid) Tree() (TreeSpec, bool) {
	if g.tree == nil {
		return TreeSpec{}, false
	}
	return g.tree.spec, true
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

// ParseTreeSpec reads a tree topology description:
//
//	# comment lines and blank lines are ignored
//	tree v1
//	leaf 20 0.1
//	level 8 40.0
//	level 16 12.0
//
// The header line names the format. The single leaf line gives nodes per
// cluster and the intra-cluster RTT in milliseconds; each level line gives
// one internal tree level root-first — fan-out and the RTT crossing that
// level. Plain-decimal RTTs convert exactly through integer arithmetic,
// so FormatTreeSpec/ParseTreeSpec is an identity (the same round-trip
// guarantee the matrix loader gives).
func ParseTreeSpec(r io.Reader) (TreeSpec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return TreeSpec{}, fmt.Errorf("topology: reading tree spec: %w", err)
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		return TreeSpec{}, fmt.Errorf("topology: empty tree spec")
	}
	if fields := strings.Fields(lines[0]); len(fields) != 2 || fields[0] != "tree" || fields[1] != "v1" {
		return TreeSpec{}, fmt.Errorf("topology: tree spec header %q, want \"tree v1\"", lines[0])
	}
	var spec TreeSpec
	haveLeaf := false
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return TreeSpec{}, fmt.Errorf("topology: tree spec line %q, want \"leaf <size> <rtt-ms>\" or \"level <fanout> <rtt-ms>\"", line)
		}
		count, err := strconv.Atoi(fields[1])
		if err != nil {
			return TreeSpec{}, fmt.Errorf("topology: tree spec line %q: %w", line, err)
		}
		d, err := parseMS(fields[2])
		if err != nil {
			return TreeSpec{}, fmt.Errorf("topology: tree spec line %q: %w", line, err)
		}
		switch fields[0] {
		case "leaf":
			if haveLeaf {
				return TreeSpec{}, fmt.Errorf("topology: duplicate leaf line %q", line)
			}
			haveLeaf = true
			spec.LeafSize, spec.LeafRTT = count, d
		case "level":
			spec.Fanouts = append(spec.Fanouts, count)
			spec.LevelRTT = append(spec.LevelRTT, d)
		default:
			return TreeSpec{}, fmt.Errorf("topology: tree spec line %q, want leaf or level", line)
		}
	}
	if !haveLeaf {
		return TreeSpec{}, fmt.Errorf("topology: tree spec has no leaf line")
	}
	if err := spec.Validate(); err != nil {
		return TreeSpec{}, err
	}
	return spec, nil
}

// FormatTreeSpec renders the spec in the format ParseTreeSpec reads.
// Durations use the exact decimal-millisecond rendering of the matrix
// format, so parsing the output reproduces the spec bit for bit.
func FormatTreeSpec(s TreeSpec) string {
	var b strings.Builder
	b.WriteString("tree v1\n")
	fmt.Fprintf(&b, "leaf %d %s\n", s.LeafSize, formatMS(s.LeafRTT))
	for i, f := range s.Fanouts {
		fmt.Fprintf(&b, "level %d %s\n", f, formatMS(s.LevelRTT[i]))
	}
	return b.String()
}
