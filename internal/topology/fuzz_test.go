package topology

import (
	"strings"
	"testing"
)

// FuzzLoad feeds arbitrary text to the RTT matrix parser: it must never
// panic, and any input it accepts must round-trip — formatting the parsed
// matrix and parsing that again must reproduce the identical matrix, and
// the formatted text must be a fixed point of parse∘format. `go test`
// runs the seed corpus; `go test -fuzz=FuzzLoad ./internal/topology`
// explores.
func FuzzLoad(f *testing.F) {
	f.Add("from a\na 0\n")
	f.Add("# comment\nfrom orsay grenoble lyon\norsay 0.034 15.039 9.128\ngrenoble 14.976 0.066 3.293\nlyon 9.136 3.309 0.026\n")
	f.Add("from x y\nx 0 1.5\ny 1.5 0\n")
	f.Add("from a\nb 0\n")            // row name mismatch
	f.Add("from a a\na 0 0\na 0 0\n") // duplicate cluster
	f.Add("from a\na NaN\n")
	f.Add("from a\na +Inf\n")
	f.Add("from a\na 1e300\n")
	f.Add("from a\na -1\n")
	f.Add("from a b\na 0\n")
	f.Add("")
	f.Add("# only comments\n")
	f.Add("from a b\na 0.000001 0.0001\nb 0.0005 0\n") // sub-millisecond RTTs
	f.Add("from a\na 0.000489\n")
	f.Add("from a b\na 0 9223372036854.775807\nb 1 0\n") // at the time.Duration edge
	f.Add("from a\na 9223372036854.775808\n")            // one ns past MaxInt64: must reject
	f.Add("from a\na 1e15\n")                            // overflows time.Duration

	f.Fuzz(func(t *testing.T, data string) {
		m, err := ParseMatrixSpec(strings.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if len(m.Names) == 0 || len(m.RTT) != len(m.Names) {
			t.Fatalf("accepted but inconsistent: %d names, %d rows", len(m.Names), len(m.RTT))
		}
		text := m.Format()
		m2, err := ParseMatrixSpec(strings.NewReader(text))
		if err != nil {
			t.Fatalf("formatted matrix does not re-parse: %v\n%s", err, text)
		}
		if len(m2.Names) != len(m.Names) {
			t.Fatalf("round trip changed cluster count: %d -> %d", len(m.Names), len(m2.Names))
		}
		for i, n := range m.Names {
			if m2.Names[i] != n {
				t.Fatalf("round trip changed name %d: %q -> %q", i, n, m2.Names[i])
			}
		}
		// Formatting carries nanosecond precision, so parsed durations
		// must survive the trip exactly and one more round must be the
		// identity.
		for i := range m.RTT {
			for j := range m.RTT[i] {
				if m2.RTT[i][j] != m.RTT[i][j] {
					t.Fatalf("round trip changed RTT[%d][%d]: %v -> %v", i, j, m.RTT[i][j], m2.RTT[i][j])
				}
			}
		}
		if text2 := m2.Format(); text2 != text {
			t.Fatalf("format not a fixed point:\n%s\nvs\n%s", text, text2)
		}
		// The spec must instantiate: Grid performs its own validation and
		// anything the parser accepts has to satisfy it.
		if _, err := m.Grid(2); err != nil {
			t.Fatalf("accepted matrix does not build a grid: %v", err)
		}
	})
}
