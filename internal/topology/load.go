package topology

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Matrix is a named cluster-to-cluster RTT matrix not yet bound to node
// counts: the reusable part of a measured topology.
type Matrix struct {
	Names []string
	RTT   [][]time.Duration
}

// Grid instantiates the matrix with nodesPerCluster nodes per cluster.
func (m *Matrix) Grid(nodesPerCluster int) (*Grid, error) {
	return New(m.Names, nodesPerCluster, m.RTT)
}

// ParseMatrixSpec reads a cluster RTT matrix in the textual format of the
// paper's Figure 3:
//
//	# comment lines and blank lines are ignored
//	from      orsay  grenoble  lyon
//	orsay     0.034  15.039    9.128
//	grenoble  14.976 0.066     3.293
//	lyon      9.136  3.309     0.026
//
// The first non-comment line is the header naming the destination
// clusters; each following row starts with the source cluster name and
// lists the RTTs in milliseconds. Row names must match the header order.
// This is how an operator feeds measured latencies from their own grid
// into the simulator. The matrix comes back unbound to node counts
// (Matrix.Grid binds it), letting callers instantiate several grid sizes
// from one measurement file.
func ParseMatrixSpec(r io.Reader) (*Matrix, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("topology: reading matrix: %w", err)
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
		return nil, fmt.Errorf("topology: empty matrix")
	}
	header := strings.Fields(lines[0])
	if len(header) < 2 {
		return nil, fmt.Errorf("topology: header %q needs a label and at least one cluster", lines[0])
	}
	names := header[1:]
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		// A name opening with '#' would render as a comment line and a
		// duplicate would make rows ambiguous: neither can round-trip
		// through the file format.
		if strings.HasPrefix(n, "#") {
			return nil, fmt.Errorf("topology: cluster name %q starts with the comment marker", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("topology: duplicate cluster name %q", n)
		}
		seen[n] = true
	}
	if len(lines)-1 != len(names) {
		return nil, fmt.Errorf("topology: %d clusters in header but %d rows", len(names), len(lines)-1)
	}

	rtt := make([][]time.Duration, len(names))
	for i, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) != len(names)+1 {
			return nil, fmt.Errorf("topology: row %q has %d values, want %d", line, len(fields)-1, len(names))
		}
		if fields[0] != names[i] {
			return nil, fmt.Errorf("topology: row %d is %q, want %q (rows must follow header order)", i, fields[0], names[i])
		}
		row := make([]time.Duration, len(names))
		for j, f := range fields[1:] {
			d, err := parseMS(f)
			if err != nil {
				return nil, fmt.Errorf("topology: row %q column %d: %w", fields[0], j, err)
			}
			row[j] = d
		}
		rtt[i] = row
	}
	return &Matrix{Names: names, RTT: rtt}, nil
}

// Format renders the matrix in the format ParseMatrixSpec reads, so
// measured topologies round-trip through files. Durations are written in
// milliseconds with up to nanosecond (six decimal) precision, trimmed to
// at least the three decimals of the paper's measurements — so sub-
// millisecond RTTs survive the round trip exactly, and formatting a
// matrix of microsecond-resolution values (or an already-formatted file)
// is a fixed point.
func (m *Matrix) Format() string {
	var b strings.Builder
	b.WriteString("from")
	for _, n := range m.Names {
		fmt.Fprintf(&b, " %s", n)
	}
	b.WriteByte('\n')
	for i, n := range m.Names {
		b.WriteString(n)
		for j := range m.Names {
			b.WriteByte(' ')
			b.WriteString(formatMS(m.RTT[i][j]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// parseMS converts one millisecond field to a duration. Plain decimals —
// the only form Format emits — convert exactly through integer
// arithmetic, so Format/parse is an identity for every representable
// duration; other accepted spellings (scientific notation) go through
// float64 and round to the nearest nanosecond.
func parseMS(f string) (time.Duration, error) {
	if d, ok := parseMSExact(f); ok {
		return d, nil
	}
	ms, err := strconv.ParseFloat(f, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(ms) || math.IsInf(ms, 0) {
		return 0, fmt.Errorf("RTT %q is not finite", f)
	}
	if ms < 0 {
		return 0, errors.New("negative RTT")
	}
	ns := ms * float64(time.Millisecond)
	if ns >= float64(math.MaxInt64) {
		return 0, fmt.Errorf("RTT %q overflows", f)
	}
	// Round instead of truncating: 0.0001 ms is 99.999… in binary
	// floating point, and truncation would turn it into 99ns.
	return time.Duration(math.Round(ns)), nil
}

// parseMSExact converts an unsigned plain-decimal millisecond value to a
// duration using integer arithmetic. It reports false — sending the
// caller to the float path — for any other spelling, for fractions finer
// than a nanosecond, and for values that do not fit a time.Duration.
func parseMSExact(s string) (time.Duration, bool) {
	ip, fp := s, ""
	if dot := strings.IndexByte(s, '.'); dot >= 0 {
		ip, fp = s[:dot], s[dot+1:]
	}
	if ip == "" && fp == "" {
		return 0, false
	}
	digits := func(s string) bool {
		for i := 0; i < len(s); i++ {
			if s[i] < '0' || s[i] > '9' {
				return false
			}
		}
		return true
	}
	if !digits(ip) || !digits(fp) {
		return 0, false
	}
	if len(fp) > 6 {
		for i := 6; i < len(fp); i++ {
			if fp[i] != '0' {
				return 0, false
			}
		}
		fp = fp[:6]
	}
	for len(fp) < 6 {
		fp += "0"
	}
	// ip.fp milliseconds is the integer ip||fp in nanoseconds.
	var ns uint64
	for _, part := range []string{ip, fp} {
		for i := 0; i < len(part); i++ {
			d := uint64(part[i] - '0')
			if ns > (math.MaxUint64-d)/10 {
				return 0, false
			}
			ns = ns*10 + d
		}
	}
	if ns > math.MaxInt64 {
		return 0, false
	}
	return time.Duration(ns), true
}

// formatMS renders a duration as decimal milliseconds with nanosecond
// precision, trailing zeros trimmed down to the three decimals of the
// paper's measurements. The rendering is exact (no float64 involved), so
// parseMSExact reads back the identical duration at any magnitude.
func formatMS(d time.Duration) string {
	sign, ns := "", uint64(d)
	if d < 0 {
		// Negative durations never come from the parser or a Grid, but
		// Format on a hand-built Matrix should still not emit garbage.
		sign, ns = "-", -uint64(d)
	}
	s := fmt.Sprintf("%s%d.%06d", sign, ns/1e6, ns%1e6)
	// Keep at least three decimals: "x.ddd000" trims to "x.ddd".
	dot := strings.IndexByte(s, '.')
	for s[len(s)-1] == '0' && len(s)-dot-1 > 3 {
		s = s[:len(s)-1]
	}
	return s
}
