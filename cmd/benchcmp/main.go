// Command benchcmp compares a freshly generated gridbench record against
// a committed baseline (BENCH_5.json, BENCH_10.json) without touching it,
// so CI can verify the benchmark still reproduces instead of silently
// overwriting the audited record.
//
// Usage:
//
//	gridbench -experiment fig4a -scale quick -parallel 4 -json "$tmp" -q
//	benchcmp -baseline BENCH_5.json -fresh "$tmp"
//
// Three properties are checked, in decreasing order of strictness:
//
//   - determinism: the fresh record's figures and event count must match
//     the baseline byte for byte — the DES is a pure function of its
//     configuration, so any drift here is a correctness bug, not noise;
//   - integrity: both records must carry identical=true (gridbench's own
//     parallel-vs-serial cross-check) and agree on experiment, scale,
//     cells and runs;
//   - throughput: events_per_sec may vary with the machine, so it is
//     only held to a floor: fresh >= baseline*(1-tolerance). Override
//     the default with -tolerance or BENCHCMP_TOLERANCE. When both
//     records carry gomaxprocs (gridbench stamps it) and the fresh
//     machine has fewer cores than the baseline's, the floor is scaled
//     by the core ratio: a parallel record produced on 8 cores cannot
//     be reproduced at full speed on 1;
//   - memory: when both records carry gridscale memory samples, each
//     fresh bytes_per_proc is held to a ceiling over the baseline's
//     sample at the same N: fresh <= baseline*(1+mem-tolerance),
//     overridable with -mem-tolerance or BENCHCMP_MEM_TOLERANCE. Bytes
//     per process is a property of the data structures, not the
//     machine, so its tolerance is much tighter than throughput's.
//
// Exit status: 0 on pass, 1 on any mismatch, 2 on usage/IO errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
)

// record mirrors the gridbench/1 fields benchcmp judges.
type record struct {
	Schema       string            `json:"schema"`
	Experiment   string            `json:"experiment"`
	Scale        string            `json:"scale"`
	Cells        int               `json:"cells"`
	Runs         int               `json:"runs"`
	Events       int64             `json:"events"`
	Workers      int               `json:"workers"`
	GoMaxProcs   int               `json:"gomaxprocs"`
	EventsPerSec float64           `json:"events_per_sec"`
	Identical    bool              `json:"identical"`
	Memory       []memSample       `json:"memory"`
	Figures      map[string]string `json:"figures"`
}

// memSample is the slice of a gridscale memory sample benchcmp judges.
type memSample struct {
	N            int     `json:"n"`
	BytesPerProc float64 `json:"bytes_per_proc"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchcmp", flag.ExitOnError)
	basePath := fs.String("baseline", "BENCH_5.json", "committed benchmark record")
	freshPath := fs.String("fresh", "", "freshly generated record to compare")
	tolerance := fs.Float64("tolerance", defaultTolerance(), "allowed fractional throughput drop below baseline (BENCHCMP_TOLERANCE)")
	memTolerance := fs.Float64("mem-tolerance", defaultMemTolerance(), "allowed fractional bytes-per-process growth over baseline (BENCHCMP_MEM_TOLERANCE)")
	fs.Parse(args)
	if *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -fresh is required")
		return 2
	}
	if *tolerance < 0 || *tolerance >= 1 {
		fmt.Fprintln(os.Stderr, "benchcmp: -tolerance must be in [0,1)")
		return 2
	}
	if *memTolerance < 0 {
		fmt.Fprintln(os.Stderr, "benchcmp: -mem-tolerance must be non-negative")
		return 2
	}

	base, err := read(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		return 2
	}
	fresh, err := read(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		return 2
	}

	status := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchcmp: "+format+"\n", args...)
		status = 1
	}

	for _, r := range []struct {
		which string
		rec   *record
	}{{"baseline", base}, {"fresh", fresh}} {
		if r.rec.Schema != "gridbench/1" {
			fail("%s: unknown schema %q", r.which, r.rec.Schema)
		}
		if !r.rec.Identical {
			fail("%s: identical=false — the parallel pass diverged from the serial reference", r.which)
		}
	}
	if base.Experiment != fresh.Experiment || base.Scale != fresh.Scale {
		fail("configuration mismatch: baseline %s/%s vs fresh %s/%s", base.Experiment, base.Scale, fresh.Experiment, fresh.Scale)
	}
	if base.Cells != fresh.Cells || base.Runs != fresh.Runs {
		fail("coverage mismatch: baseline %d cells/%d runs vs fresh %d cells/%d runs", base.Cells, base.Runs, fresh.Cells, fresh.Runs)
	}
	if base.Events != fresh.Events {
		fail("determinism violation: baseline processed %d events, fresh %d — same configuration must replay the same schedule", base.Events, fresh.Events)
	}
	for name, want := range base.Figures {
		if got, ok := fresh.Figures[name]; !ok {
			fail("fresh record lacks figure %s", name)
		} else if got != want {
			fail("determinism violation: figure %s differs from the committed record", name)
		}
	}

	// Throughput floor, scaled by the core ratio when the fresh machine
	// has fewer cores than the baseline's and the baseline used them: a
	// record produced by a parallel pass on G cores cannot reproduce its
	// events/sec on fewer, and that is a property of the machine, not a
	// regression.
	coreRatio := 1.0
	if base.GoMaxProcs > 0 && fresh.GoMaxProcs > 0 &&
		fresh.GoMaxProcs < base.GoMaxProcs && base.Workers > 1 {
		coreRatio = float64(fresh.GoMaxProcs) / float64(base.GoMaxProcs)
		fmt.Fprintf(os.Stderr, "benchcmp: note: fresh machine has %d of the baseline's %d cores; throughput floor scaled by %.2fx\n",
			fresh.GoMaxProcs, base.GoMaxProcs, coreRatio)
	}
	floor := base.EventsPerSec * (1 - *tolerance) * coreRatio
	if fresh.EventsPerSec < floor {
		fail("throughput regression: %.0f events/sec is below the floor %.0f (baseline %.0f, tolerance %.0f%%, core ratio %.2f)",
			fresh.EventsPerSec, floor, base.EventsPerSec, *tolerance*100, coreRatio)
	}

	// Memory ceiling: bytes per process is determined by the simulator's
	// data structures, so unlike throughput it must hold across machines.
	// Judged only when the baseline carries samples (gridscale records).
	for _, bs := range base.Memory {
		var fm *memSample
		for i := range fresh.Memory {
			if fresh.Memory[i].N == bs.N {
				fm = &fresh.Memory[i]
				break
			}
		}
		if fm == nil {
			fail("fresh record lacks the memory sample at N=%d", bs.N)
			continue
		}
		if ceiling := bs.BytesPerProc * (1 + *memTolerance); bs.BytesPerProc > 0 && fm.BytesPerProc > ceiling {
			fail("memory regression at N=%d: %.0f bytes/process exceeds the ceiling %.0f (baseline %.0f, tolerance %.0f%%)",
				bs.N, fm.BytesPerProc, ceiling, bs.BytesPerProc, *memTolerance*100)
		}
	}

	if status == 0 {
		fmt.Printf("benchcmp: ok — %d events byte-identical, %.2fx baseline throughput\n",
			fresh.Events, fresh.EventsPerSec/base.EventsPerSec)
	}
	return status
}

// defaultTolerance reads BENCHCMP_TOLERANCE, defaulting to 0.75: CI
// machines vary wildly, so by default only a >4x slowdown fails — the
// determinism checks, not the throughput floor, carry the regression
// burden.
func defaultTolerance() float64 {
	if s := os.Getenv("BENCHCMP_TOLERANCE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
	}
	return 0.75
}

// defaultMemTolerance reads BENCHCMP_MEM_TOLERANCE, defaulting to 0.5:
// bytes per process is a data-structure property, but GC timing and
// allocator size classes still wiggle it across Go versions and machines,
// so the ceiling leaves 50% headroom — far below the order-of-magnitude
// jumps a reintroduced O(N) term causes.
func defaultMemTolerance() float64 {
	if s := os.Getenv("BENCHCMP_MEM_TOLERANCE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
	}
	return 0.5
}

func read(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
