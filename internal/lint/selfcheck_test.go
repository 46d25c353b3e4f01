package lint_test

import (
	"testing"

	"gridmutex/internal/lint"
)

// TestGridlintSelfCheck runs the complete suite and the exemption audit
// over the whole module — what the gridlint command does with no
// arguments, and the only place CI runs it. The tree must be clean: every
// invariant violation is either fixed or carries a reasoned, still-live
// //lint:allow pragma.
func TestGridlintSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no module packages found")
	}
	prog, err := loader.LoadProgram(paths)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range lint.Run(prog, lint.All()).Diagnostics {
		t.Errorf("gridlint is not clean over the repo: %s", d)
	}
}
