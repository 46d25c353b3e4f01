package lint_test

import (
	"testing"

	"gridmutex/internal/lint"
	"gridmutex/internal/lint/linttest"
)

// The bad and good corpora sit inside a DES-driven package path, where
// every file is scanned whether or not anything calls it.
func TestDetTaintBad(t *testing.T) {
	linttest.Run(t, linttest.TestDataDir(t), lint.DetTaint, "dettaint/internal/des/bad")
}

func TestDetTaintGood(t *testing.T) {
	linttest.Run(t, linttest.TestDataDir(t), lint.DetTaint, "dettaint/internal/des/good")
}

// The chain corpus keeps every source in util, outside the package list:
// the findings exist only because harness (a DES package) reaches them.
func TestDetTaintCrossPackageChain(t *testing.T) {
	linttest.Run(t, linttest.TestDataDir(t), lint.DetTaint,
		"dettaint/internal/harness",
		"dettaint/internal/util",
	)
}

// TestDetTaintChainRecorded pins the part the want harness cannot see:
// the diagnostic carries the entry-point chain, outermost first.
func TestDetTaintChainRecorded(t *testing.T) {
	prog := linttest.Load(t, linttest.TestDataDir(t), "dettaint/internal/harness", "dettaint/internal/util")
	diags := lint.Run(prog, []*lint.Analyzer{lint.DetTaint}).Diagnostics
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	for _, d := range diags {
		if len(d.Chain) < 2 {
			t.Errorf("diagnostic without a cross-package chain: %s", d)
			continue
		}
		if d.Chain[0] != "internal/harness.Run" {
			t.Errorf("chain starts at %s, want the DES entry point internal/harness.Run", d.Chain[0])
		}
	}
}
