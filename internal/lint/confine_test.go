package lint_test

import (
	"strings"
	"testing"

	"gridmutex/internal/lint"
	"gridmutex/internal/lint/linttest"
)

// The harness corpus reaches confined symbols through an import alias, a
// method value, an explicit instantiation, a composite-literal key, a
// field assignment and a method call; run, where the table allows the
// assembly symbols and the adaptive import, uses them without a finding
// but not the grant list, simnet, which declares two, uses them without a
// finding, and so does harness with its own Scale.Workers. The gridbench
// command sets Scale.Workers, which only harness and bench may, and wire
// imports the adaptive protocol, which only run may.
func TestConfine(t *testing.T) {
	linttest.Run(t, linttest.TestDataDir(t), lint.Confine,
		"confine/cmd/gridbench",
		"confine/internal/harness",
		"confine/internal/livenet/wire",
		"confine/internal/run",
		"confine/internal/simnet",
	)
}

// TestConfineRowNamesNothing pins that a row whose package is loaded but
// holds no such symbol is a finding, not a rule that silently lapses.
func TestConfineRowNamesNothing(t *testing.T) {
	prog := linttest.Load(t, linttest.TestDataDir(t), "confine/internal/check")
	diags := lint.Run(prog, []*lint.Analyzer{lint.Confine}).Diagnostics
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "internal/check.NewMonitor names nothing") {
		t.Fatalf("diagnostics = %v, want one naming the unresolved internal/check.NewMonitor row", diags)
	}
}
