package harness

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// parallelScale is a small grid (2 systems x 3 rhos x 2 reps = 12 runs)
// so the equivalence tests stay fast under -race.
func parallelScale() Scale {
	s := QuickScale()
	s.Rhos = []float64{6, 24, 72}
	return s
}

func parallelSystems() []System {
	return []System{Flat("naimi"), Composed("naimi", "suzuki")}
}

// TestParallelMatchesSerial is the core equivalence property: a parallel
// run must be byte-identical to a serial one — same Points (every float,
// bit for bit), same rendered tables, same progress lines in the same
// order. More jobs than workers (12 runs on 3 workers) exercises the
// queue/claim path; 0, the zero value every Scale starts from, is
// GOMAXPROCS.
func TestParallelMatchesSerial(t *testing.T) {
	runWith := func(workers int) (*Result, []string) {
		s := parallelScale()
		s.Workers = workers
		var lines []string
		res, err := Run(parallelSystems(), s, func(l string) { lines = append(lines, l) })
		if err != nil {
			t.Fatalf("Run with %d workers failed: %v", workers, err)
		}
		return res, lines
	}
	serial, serialLines := runWith(1)
	for _, workers := range []int{0, 3, -1} {
		par, parLines := runWith(workers)
		if !reflect.DeepEqual(serial.Points, par.Points) {
			t.Errorf("workers=%d: Points differ from serial", workers)
		}
		for _, m := range []Metric{ObtainingMean, ObtainingStd, InterMsgs, Fairness} {
			st, pt := serial.Table(m, "t"), par.Table(m, "t")
			if st != pt {
				t.Errorf("workers=%d: %v table differs:\nserial:\n%s\nparallel:\n%s", workers, m, st, pt)
			}
		}
		if !reflect.DeepEqual(serialLines, parLines) {
			t.Errorf("workers=%d: progress lines differ:\nserial:   %q\nparallel: %q",
				workers, serialLines, parLines)
		}
	}
}

// TestParallelScalabilityMatchesSerial covers the second cell builder:
// scalability cells vary the Scale per cell, so the index→cluster mapping
// must survive the fan-out.
func TestParallelScalabilityMatchesSerial(t *testing.T) {
	runWith := func(workers int) *ScalabilityResult {
		s := parallelScale()
		s.Workers = workers
		res, err := RunScalability([]System{Flat("naimi"), Composed("naimi", "naimi")}, s, []int{2, 3}, nil)
		if err != nil {
			t.Fatalf("RunScalability with %d workers failed: %v", workers, err)
		}
		return res
	}
	serial, par := runWith(1), runWith(4)
	if !reflect.DeepEqual(serial.Points, par.Points) {
		t.Fatal("parallel scalability points differ from serial")
	}
	if serial.Table("t") != par.Table("t") {
		t.Fatal("parallel scalability table differs from serial")
	}
}

// TestParallelErrorMatchesSerial: when a cell fails, the parallel run must
// report the same error a serial run would — the lowest (cell, rep) index
// failure, identically wrapped.
func TestParallelErrorMatchesSerial(t *testing.T) {
	runWith := func(workers int) error {
		s := parallelScale()
		s.Workers = workers
		_, err := Run([]System{Flat("naimi"), Flat("no-such-algorithm")}, s, nil)
		return err
	}
	serialErr, parErr := runWith(1), runWith(4)
	if serialErr == nil || parErr == nil {
		t.Fatalf("expected both paths to fail: serial=%v parallel=%v", serialErr, parErr)
	}
	if serialErr.Error() != parErr.Error() {
		t.Fatalf("error strings differ:\nserial:   %v\nparallel: %v", serialErr, parErr)
	}
}

// TestDeriveSeedNoCollisions sweeps a dense fractional ρ grid — closer
// together than the old int64(rho*7919) truncation could distinguish —
// crossed with repetitions, and requires every seed to be distinct.
func TestDeriveSeedNoCollisions(t *testing.T) {
	seen := make(map[int64]string)
	for i := 0; i < 2000; i++ {
		rho := 1 + float64(i)*1e-4
		for rep := 0; rep < 5; rep++ {
			seed := deriveSeed(1, rho, rep)
			key := fmt.Sprintf("rho=%v rep=%d", rho, rep)
			if prev, dup := seen[seed]; dup {
				t.Fatalf("seed collision: %s and %s both derive %d", prev, key, seed)
			}
			seen[seed] = key
		}
	}
}

// TestDeriveSeedIgnoresSystem documents the common-random-numbers pairing:
// the seed depends only on (base, ρ, rep), so every system replays the
// same arrival streams — and changing any one input changes the seed.
func TestDeriveSeedIgnoresSystem(t *testing.T) {
	base := deriveSeed(1, 90, 0)
	if deriveSeed(1, 90, 0) != base {
		t.Fatal("deriveSeed is not deterministic")
	}
	if deriveSeed(2, 90, 0) == base || deriveSeed(1, 91, 0) == base || deriveSeed(1, 90, 1) == base {
		t.Fatal("changing base, rho or rep did not change the seed")
	}
}

// TestScaleValidate covers the up-front dimension checks.
func TestScaleValidate(t *testing.T) {
	if err := QuickScale().Validate(); err != nil {
		t.Fatalf("QuickScale should validate: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scale)
		want   string
	}{
		{"repetitions", func(s *Scale) { s.Repetitions = 0 }, "Repetitions"},
		{"cs-per-process", func(s *Scale) { s.CSPerProcess = -1 }, "CSPerProcess"},
		{"apps-per-cluster", func(s *Scale) { s.AppsPerCluster = 0 }, "AppsPerCluster"},
		{"clusters", func(s *Scale) { s.Clusters = 0 }, "Clusters"},
	}
	for _, c := range cases {
		s := QuickScale()
		c.mutate(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error naming %s", c.name, err, c.want)
		}
		if _, runErr := Run(parallelSystems(), s, nil); runErr == nil {
			t.Errorf("%s: Run accepted an invalid scale", c.name)
		}
	}
}

// TestParallelSingleCellMatchesSerial: with (cell, repetition) shard
// fan-out, a single cell with two repetitions must still spread across
// workers — and stay byte-identical to the serial run.
func TestParallelSingleCellMatchesSerial(t *testing.T) {
	runWith := func(workers int) *Result {
		s := parallelScale()
		s.Rhos = []float64{12} // one cell
		s.Workers = workers
		res, err := Run([]System{Composed("naimi", "martin")}, s, nil)
		if err != nil {
			t.Fatalf("Run with %d workers failed: %v", workers, err)
		}
		return res
	}
	serial, par := runWith(1), runWith(4)
	if !reflect.DeepEqual(serial.Points, par.Points) {
		t.Fatal("single-cell multi-worker run differs from serial")
	}
}

// TestParallelRecoveryMatchesSerial: the crash-recovery sweep fans out by
// (period, ρ, repetition) shard; every Workers setting must render the
// same table and the same progress lines, costs included.
func TestParallelRecoveryMatchesSerial(t *testing.T) {
	runWith := func(workers int) (*RecoveryResult, []string) {
		s := recoveryTestScale()
		s.Workers = workers
		params := RecoveryParams{Periods: []time.Duration{10 * time.Millisecond, 40 * time.Millisecond}}
		var lines []string
		res, err := RunRecovery(params, s, func(l string) { lines = append(lines, l) })
		if err != nil {
			t.Fatalf("RunRecovery with %d workers failed: %v", workers, err)
		}
		return res, lines
	}
	serial, serialLines := runWith(1)
	for _, workers := range []int{0, 4, -1} {
		par, parLines := runWith(workers)
		if !reflect.DeepEqual(serial.Points, par.Points) {
			t.Errorf("workers=%d: recovery points differ from serial", workers)
		}
		if serial.Table("t") != par.Table("t") {
			t.Errorf("workers=%d: recovery table differs from serial", workers)
		}
		if !reflect.DeepEqual(serialLines, parLines) {
			t.Errorf("workers=%d: progress lines differ:\nserial:   %q\nparallel: %q",
				workers, serialLines, parLines)
		}
	}
	if len(serialLines) != 2 || !strings.Contains(serialLines[0], " closures/grant") {
		t.Errorf("progress lines %q, want two ending in the cell's costs", serialLines)
	}
}

// TestParallelProgressStreams: with two workers the first cell is merged —
// which is when Run delivers its progress line — before any run of the last
// cell starts, and every cell is merged in order with its repetitions in
// order. The fan-out is driven through runShards, the function sweep — the
// one driver of Run, RunScalability, RunPhased, RunRecovery and
// RunPartition — hands its cells to, because only there can a test see a
// run start. At d1e79f2 every merge of a Workers > 1 sweep
// waited for the last run to finish: a 24.7 s figure printed all 30
// progress lines in its last 60 ms.
func TestParallelProgressStreams(t *testing.T) {
	// 12 cells of 2 repetitions: the last cell's shards lie beyond the
	// fan-out's run-ahead window, so the ordering below is guaranteed, not
	// merely likely.
	const cells, reps = 12, 2
	for _, workers := range []int{0, 1, 2} {
		var firstMerged atomic.Bool
		var merged []int
		err := runShards(cells, func(int) int { return reps }, workers, func(ci, rep int) (int, error) {
			if ci == cells-1 && !firstMerged.Load() {
				return 0, fmt.Errorf("a run of the last cell started before the first cell was merged")
			}
			return ci*reps + rep, nil
		}, func(ci int, parts []int) error {
			if ci == 0 {
				firstMerged.Store(true)
			}
			if fmt.Sprint(parts) != fmt.Sprint([]int{ci * reps, ci*reps + 1}) {
				t.Errorf("workers=%d: cell %d merged parts %v", workers, ci, parts)
			}
			merged = append(merged, ci)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(merged) != cells || merged[0] != 0 || merged[cells-1] != cells-1 {
			t.Fatalf("workers=%d: merged cells %v, want 0..%d in order", workers, merged, cells-1)
		}
	}
}

// TestParallelProgressBeforeFailure: a sweep that fails in its last cell
// has, like a serial loop, already delivered the progress lines of the
// cells before it — for every Workers setting.
func TestParallelProgressBeforeFailure(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := parallelScale()
		s.Workers = workers
		var lines int
		_, err := Run([]System{Flat("naimi"), Flat("no-such-algorithm")}, s, func(string) { lines++ })
		if err == nil {
			t.Fatalf("workers=%d: the unknown algorithm was accepted", workers)
		}
		if want := len(s.Rhos); lines != want {
			t.Errorf("workers=%d: %d progress lines before the failure, want flat Naimi's %d", workers, lines, want)
		}
	}
}
