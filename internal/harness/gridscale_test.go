package harness

import (
	"os"
	"testing"
	"time"
)

const goldenGridScale = "../../testdata/golden/gridscale-paper.txt"

// gridScaleBytesPerProcCeiling bounds the settled heap one simulated
// process may cost at N ≥ 10³. The sweep reads 343 / 326 / 321 B at
// N = 10³ / 10⁴ / 10⁵, the same under -race (408 / 390 / 385 while a
// core.Process took two cache lines, 440 / 422 / 413 while the runner
// still buffered a record per grant); a per-process field of 8 bytes at
// 10³, or any O(N) or O(C²) term in per-process state, crosses 350.
// N = 10² is exempt: fixed costs (simulator, network, monitor) dominate
// 102 processes.
const gridScaleBytesPerProcCeiling = 350

// gridScaleDriveAllocCeiling bounds the bytes a drive allocates per process
// at N ≥ 10³, and gridScaleBuildAllocRatio the bytes a build allocates per
// byte it keeps. Under GOGC 400 a 10⁵ run collects almost none of it, so
// it is what the process's peak heap climbs by. The sweep allocates
// 122 / 159 / 149 B driving and 1.10 / 1.14 / 1.15 × what it keeps
// building (1.09 / 1.11 / 1.12 with a two-line core.Process), at
// N = 10³ / 10⁴ / 10⁵. Under -race the drive reads 147 / 201 / 204 B: the race build's allocator gives every 4-byte message
// box 16 bytes of its own. The drive allocated 165 / 225 / 218 B (267 / 273
// at 10⁴ / 10⁵ under -race) while the event queue's buckets grew by
// append's 1.25× and the runner's start walked the slot array through
// every doubling, and 196 / 329 / 391 B, with the build at 1.33 / 1.57 /
// 1.67 ×, while the slot array grew by append too and the builders grew
// Apps and Procs the same way, each chain leaving about four dead arrays
// behind the live one.
const (
	gridScaleDriveAllocCeiling = 210
	gridScaleBuildAllocRatio   = 1.2
)

// TestGridScalePaper runs the paper-scale grid-scale sweep once and holds
// its two properties: the deterministic table equals the committed golden
// byte for byte, and memory per process, kept and allocated, stays flat
// across three decades.
func TestGridScalePaper(t *testing.T) {
	res, err := RunGridScale(GridScaleNs(true), 1, 10*time.Millisecond, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenGridScale)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table("Grid-scale sweep"); got != string(want) {
		t.Errorf("grid-scale table differs from %s; fresh render:\n%s", goldenGridScale, got)
	}
	for _, p := range res.Points {
		t.Logf("N=%d: %d procs, %.0f B/proc, allocated %.1f B/proc building and %.1f driving",
			p.N, p.Mem.Procs, p.Mem.BytesPerProc, p.Mem.BuildAllocPerProc, p.Mem.DriveAllocPerProc)
		if p.N < 1000 {
			continue
		}
		if p.Mem.BytesPerProc <= 0 || p.Mem.BytesPerProc > gridScaleBytesPerProcCeiling {
			t.Errorf("N=%d: %.0f bytes per process, want (0, %d]", p.N, p.Mem.BytesPerProc, gridScaleBytesPerProcCeiling)
		}
		if a := p.Mem.DriveAllocPerProc; a <= 0 || a > gridScaleDriveAllocCeiling {
			t.Errorf("N=%d: the drive allocates %.1f bytes per process, want (0, %d]", p.N, a, gridScaleDriveAllocCeiling)
		}
		if r := p.Mem.BuildAllocPerProc / p.Mem.BytesPerProc; r > gridScaleBuildAllocRatio {
			t.Errorf("N=%d: the build allocates %.1f bytes per process for %.0f kept, %.2f ×, want <= %.1f",
				p.N, p.Mem.BuildAllocPerProc, p.Mem.BytesPerProc, r, gridScaleBuildAllocRatio)
		}
	}
}

// TestGridScaleQueueWork holds the radix-heap event queue to its counts,
// so CI needs no stopwatch: at N = 10⁴ (three critical sections per process,
// 397,136 events) scatters move under 1.3 keys per event — 1.06 as built,
// 1.49 when a bucket of one key is scattered instead of popped in place:
// the ~9,000 idle think timers sit in high buckets and are moved only as
// the clock's high bits turn.
func TestGridScaleQueueWork(t *testing.T) {
	res, err := RunGridScale([]int{10_000}, 3, 10*time.Millisecond, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	q := p.Queue
	t.Logf("N=%d: %d events, %.2f key moves/event, %+v", p.N, p.Events, q.MovesPerEvent(), q)
	if q.Pushes != uint64(p.Events) {
		t.Errorf("%d pushes for %d events", q.Pushes, p.Events)
	}
	if m := q.MovesPerEvent(); m > 1.3 {
		t.Errorf("%.2f key moves per event, want <= 1.3", m)
	}
}

// TestGridScaleClosureEvents pins how many events are closures (des.At and
// After) rather than typed events, exactly, at N = 10³ with three critical
// sections per process. The workload's request and exit timers are typed
// events, so what remains is 2,700 OnAcquire upcalls (one per grant, an
// Env.Local each), 5,825 coordinator Locals (their acquire and pending
// upcalls at every level) and 6 liveness watchdog ticks: 8,531 of 32,120
// events, 3.1596 per grant. Two more per grant mean the runner's timers
// are closures again.
func TestGridScaleClosureEvents(t *testing.T) {
	res, err := RunGridScale([]int{1000}, 3, 10*time.Millisecond, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.Grants != 2700 || p.Events != 32120 {
		t.Fatalf("%d grants and %d events, want 2,700 and 32,120", p.Grants, p.Events)
	}
	if c := p.Queue.Closures; c != 8531 {
		t.Errorf("%d closure events (%.4f per grant), want 8,531", c, float64(c)/float64(p.Grants))
	}
}
