package harness

import (
	"os"
	"testing"
	"time"
)

const goldenGridScale = "../../testdata/golden/gridscale-paper.txt"

// gridScaleBytesPerProcCeiling bounds the settled heap one simulated
// process may cost at N ≥ 10³. The sweep reads 636 / 622 / 625 B at
// N = 10³ / 10⁴ / 10⁵; a per-process field of a few hundred bytes, or any
// O(N) or O(C²) term in per-process state, crosses 1,000 at one of them.
// N = 10² is exempt: fixed costs (simulator, network, monitor) dominate
// 102 processes.
const gridScaleBytesPerProcCeiling = 1000

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
