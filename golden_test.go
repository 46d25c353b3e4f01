package gridmutex

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/figures-quick.txt from the current code")

const goldenFigures = "testdata/golden/figures-quick.txt"

// TestGoldenFiguresQuick holds every figure ReproduceAll renders at quick
// scale to the committed bytes, so a refactor of the run path that moves
// any table cell fails here (the paper-scale gridscale table is held by
// internal/harness TestGridScalePaper). Regenerate with `go test -run
// TestGoldenFiguresQuick -update .` only when a change is meant to move
// figure bytes.
func TestGoldenFiguresQuick(t *testing.T) {
	figs, err := ReproduceAll(ScaleQuick, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != len(Figures()) {
		t.Fatalf("ReproduceAll rendered %d figures, Figures() lists %d", len(figs), len(Figures()))
	}
	section := func(name string) string { return "=== " + name + " ===\n" + figs[name] + "\n" }
	var b strings.Builder
	for _, name := range Figures() {
		b.WriteString(section(name))
	}
	if *update {
		if err := os.MkdirAll("testdata/golden", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFigures, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFigures)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() == string(want) {
		return
	}
	for _, name := range Figures() {
		if !strings.Contains(string(want), section(name)) {
			t.Errorf("figure %s moved; fresh render:\n%s", name, figs[name])
		}
	}
	t.Fatal("figure bytes differ from " + goldenFigures)
}
