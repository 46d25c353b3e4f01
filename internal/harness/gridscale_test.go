package harness

import (
	"os"
	"testing"
	"time"
)

const goldenGridScale = "../../testdata/golden/gridscale-paper.txt"

// gridScaleBytesPerProcCeiling bounds the settled heap one simulated
// process may cost at N ≥ 10³. The sweep reads 408 / 393 / 384 B at
// N = 10³ / 10⁴ / 10⁵ (440 / 422 / 413 while the runner still buffered a
// record per grant); a per-process field of 64 bytes, or any O(N) or O(C²)
// term in per-process state, crosses 450 at one of them. N = 10² is
// exempt: fixed costs (simulator, network, monitor) dominate 102
// processes.
const gridScaleBytesPerProcCeiling = 450

// TestGridScalePaper runs the paper-scale grid-scale sweep once and holds
// its two properties: the deterministic table equals the committed golden
// byte for byte, and memory per process stays flat across three decades.
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
		t.Logf("N=%d: %d procs, %.0f B/proc", p.N, p.Mem.Procs, p.Mem.BytesPerProc)
		if p.N < 1000 {
			continue
		}
		if p.Mem.BytesPerProc <= 0 || p.Mem.BytesPerProc > gridScaleBytesPerProcCeiling {
			t.Errorf("N=%d: %.0f bytes per process, want (0, %d]", p.N, p.Mem.BytesPerProc, gridScaleBytesPerProcCeiling)
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
