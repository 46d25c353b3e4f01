package lint_test

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
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

// TestTestFilesReadNoEnvironment holds the test files, which the loader
// skips, to confine's environment rows: outside bench/, whose re-exec
// marker is its own, no test reads or sets an environment variable.
func TestTestFilesReadNoEnvironment(t *testing.T) {
	root, fset := filepath.Join("..", ".."), token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && (path == filepath.Join(root, "bench") || d.Name() == "testdata") {
			return cmp.Or(err, filepath.SkipDir)
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Getenv" || sel.Sel.Name == "LookupEnv" || sel.Sel.Name == "Setenv") {
				t.Errorf("%s: %s reads or sets the environment", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
