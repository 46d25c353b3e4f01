package topology

import (
	"strings"
	"testing"
	"time"
)

const sampleMatrix = `
# measured on our lab grid
from      paris  lyon   nice
paris     0.050  4.2    9.0
lyon      4.1    0.030  6.5
nice      9.2    6.6    0.040
`

// parseGrid parses a matrix and binds it to nodesPerCluster nodes.
func parseGrid(text string, nodesPerCluster int) (*Grid, error) {
	m, err := ParseMatrixSpec(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return m.Grid(nodesPerCluster)
}

func TestParseMatrix(t *testing.T) {
	g, err := parseGrid(sampleMatrix, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumClusters() != 3 || g.NumNodes() != 15 {
		t.Fatalf("clusters=%d nodes=%d", g.NumClusters(), g.NumNodes())
	}
	if g.ClusterName(1) != "lyon" {
		t.Errorf("ClusterName(1) = %q", g.ClusterName(1))
	}
	if got, want := g.RTT(0, 2), 9*time.Millisecond; got != want {
		t.Errorf("RTT(paris,nice) = %v, want %v", got, want)
	}
	if got, want := g.RTT(1, 1), 30*time.Microsecond; got != want {
		t.Errorf("RTT(lyon,lyon) = %v, want %v", got, want)
	}
}

// TestParseMatrixSubMillisecond pins the regression where sub-ms values
// were truncated instead of rounded: 0.0001 ms is 99.999… in binary
// floating point and used to parse as 99ns.
func TestParseMatrixSubMillisecond(t *testing.T) {
	const input = "from a b\na 0.000001 0.0001\nb 0.000489 0\n"
	m, err := ParseMatrixSpec(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]time.Duration{
		{1 * time.Nanosecond, 100 * time.Nanosecond},
		{489 * time.Nanosecond, 0},
	}
	for i := range want {
		for j := range want[i] {
			if m.RTT[i][j] != want[i][j] {
				t.Errorf("RTT[%d][%d] = %v, want %v", i, j, m.RTT[i][j], want[i][j])
			}
		}
	}
	// And the full trip: format, reparse, compare exactly.
	m2, err := ParseMatrixSpec(strings.NewReader(m.Format()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	for i := range want {
		for j := range want[i] {
			if m2.RTT[i][j] != m.RTT[i][j] {
				t.Errorf("round trip changed RTT[%d][%d]: %v -> %v", i, j, m.RTT[i][j], m2.RTT[i][j])
			}
		}
	}
}

// TestFormatMS: nanosecond-exact rendering, trailing zeros trimmed to no
// fewer than three decimals so existing three-decimal files stay fixed
// points.
func TestFormatMS(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0.000"},
		{34 * time.Microsecond, "0.034"},
		{15039 * time.Microsecond, "15.039"},
		{time.Nanosecond, "0.000001"},
		{100 * time.Nanosecond, "0.0001"},
		{489 * time.Nanosecond, "0.000489"},
		{time.Millisecond, "1.000"},
		{1500 * time.Nanosecond, "0.0015"},
		{time.Duration(1<<63 - 1), "9223372036854.775807"},
	}
	for _, c := range cases {
		if got := formatMS(c.d); got != c.want {
			t.Errorf("formatMS(%v) = %q, want %q", c.d, got, c.want)
		}
		// Every rendered value must reparse exactly.
		if d, ok := parseMSExact(formatMS(c.d)); !ok || d != c.d {
			t.Errorf("parseMSExact(formatMS(%v)) = %v, %v", c.d, d, ok)
		}
	}
}

// TestParseMSOverflow: values past time.Duration's range are rejected,
// not wrapped.
func TestParseMSOverflow(t *testing.T) {
	for _, f := range []string{"9223372036854.775808", "1e15", "99999999999999999999"} {
		if _, err := ParseMatrixSpec(strings.NewReader("from a\na " + f + "\n")); err == nil {
			t.Errorf("%q: accepted, want overflow error", f)
		}
	}
	// The exact edge of the range must still parse.
	m, err := ParseMatrixSpec(strings.NewReader("from a\na 9223372036854.775807\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.RTT[0][0] != time.Duration(1<<63-1) {
		t.Errorf("edge value parsed as %v", m.RTT[0][0])
	}
}

func TestParseMatrixErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"comments only":  "# nothing here\n",
		"header only":    "from a b\n",
		"no clusters":    "from\nx 1\n",
		"missing row":    "from a b\na 0 1\n",
		"ragged row":     "from a b\na 0 1\nb 1\n",
		"row name order": "from a b\nb 0 1\na 1 0\n",
		"bad number":     "from a\na x\n",
		"negative":       "from a\na -1\n",
	}
	for name, input := range cases {
		if _, err := parseGrid(input, 2); err == nil {
			t.Errorf("%s: parsed successfully", name)
		}
	}
	if _, err := parseGrid(sampleMatrix, 0); err == nil {
		t.Error("zero nodes per cluster accepted")
	}
}

// TestMatrixRoundTrip: the built-in Grid'5000 matrix, formatted, parses
// back to identical names and latencies.
func TestMatrixRoundTrip(t *testing.T) {
	orig := Grid5000(3)
	m := Matrix{Names: make([]string, orig.NumClusters()), RTT: make([][]time.Duration, orig.NumClusters())}
	for i := range m.Names {
		m.Names[i] = orig.ClusterName(i)
		m.RTT[i] = make([]time.Duration, orig.NumClusters())
		for j := range m.RTT[i] {
			m.RTT[i][j] = orig.RTT(i, j)
		}
	}
	text := m.Format()
	parsed, err := parseGrid(text, 3)
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, text)
	}
	if parsed.NumClusters() != orig.NumClusters() {
		t.Fatal("cluster count changed")
	}
	for i := 0; i < orig.NumClusters(); i++ {
		if parsed.ClusterName(i) != orig.ClusterName(i) {
			t.Fatalf("name %d changed", i)
		}
		for j := 0; j < orig.NumClusters(); j++ {
			if parsed.RTT(i, j) != orig.RTT(i, j) {
				t.Fatalf("RTT(%d,%d): %v != %v", i, j, parsed.RTT(i, j), orig.RTT(i, j))
			}
		}
	}
}
