package harness

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func partitionTestScale() Scale {
	s := QuickScale()
	s.AppsPerCluster = 3
	s.CSPerProcess = 5
	s.Repetitions = 2
	s.Rhos = []float64{6}
	return s
}

func TestRunPartitionWindow(t *testing.T) {
	params := partitionParams{Durations: []time.Duration{400 * time.Millisecond}}
	res, err := runPartition(params, partitionTestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points %d, want 1", len(res.Points))
	}
	p := res.Points[0]
	if p.DroppedPartition == 0 {
		t.Error("no messages dropped on the cut despite a partition window per repetition")
	}
	if p.Grants == 0 {
		t.Error("no grants recorded")
	}
	// Every repetition runs the full workload to completion: 9 apps x 5
	// CS x 2 repetitions.
	scale := partitionTestScale()
	want := int64(scale.N() * scale.CSPerProcess * scale.Repetitions)
	if p.Grants != want {
		t.Errorf("grants %d, want %d (full completion after the heal)", p.Grants, want)
	}
	if p.DetectorMsgsPerSec <= 0 {
		t.Error("no detector traffic recorded")
	}
	// The cut outlasts the inter detector timeout, so the cut-off side —
	// 2 of 6 inter members — must have entered the minority freeze.
	if p.MinorityFreezes == 0 {
		t.Error("no minority freezes despite a detectable cut per repetition")
	}
	tab := res.partitionTable("test")
	if !strings.Contains(tab, "obtain(ms)") || !strings.Contains(tab, "partition window") {
		t.Errorf("table misses headers:\n%s", tab)
	}
	// No ρ means no point for the table to read its heartbeat from.
	empty := partitionTestScale()
	empty.Rhos = nil
	if _, err := runPartition(params, empty, nil); err == nil {
		t.Error("a partition sweep with no rho accepted")
	}
}

// TestRunPartitionDeterministic: the whole sweep is a pure function of
// the base seed, for serial and parallel workers alike.
func TestRunPartitionDeterministic(t *testing.T) {
	params := partitionParams{Durations: []time.Duration{400 * time.Millisecond}}
	a, err := runPartition(params, partitionTestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPartition(params, partitionTestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.partitionTable("x") != b.partitionTable("x") {
		t.Fatal("same base seed produced different partition tables")
	}
}

// TestParallelPartitionEquivalence: worker fan-out must not change a
// single byte of the aggregate or of the progress lines, costs included.
func TestParallelPartitionEquivalence(t *testing.T) {
	params := partitionParams{Durations: []time.Duration{400 * time.Millisecond}}
	runWith := func(workers int) (*Result, []string) {
		s := partitionTestScale()
		s.Workers = workers
		var lines []string
		res, err := runPartition(params, s, func(l string) { lines = append(lines, l) })
		if err != nil {
			t.Fatal(err)
		}
		return res, lines
	}
	a, aLines := runWith(1)
	for _, workers := range []int{0, 4} {
		b, bLines := runWith(workers)
		if a.partitionTable("x") != b.partitionTable("x") {
			t.Fatalf("workers=1 and workers=%d produced different partition tables", workers)
		}
		if !reflect.DeepEqual(aLines, bLines) {
			t.Fatalf("workers=1 and workers=%d produced different progress lines:\n%q\n%q", workers, aLines, bLines)
		}
	}
	if len(aLines) != 1 || !strings.Contains(aLines[0], " closures/grant") {
		t.Fatalf("progress lines %q, want one ending in the cell's costs", aLines)
	}
}
