// Package linttest runs lint analyzers over a corpus of example
// packages and checks their diagnostics against expectations embedded in
// the sources, in the style of golang.org/x/tools/go/analysis/analysistest.
//
// An expectation is a trailing comment of the form
//
//	for k := range m {} // want `iteration over map`
//
// Every `...`-quoted (or "..."-quoted) fragment on a line is a regular
// expression that must match one diagnostic reported on that line; every
// diagnostic must be matched by exactly one fragment. Files without want
// comments assert the analyzer stays silent.
package linttest

import (
	"path/filepath"
	"regexp"
	"runtime"
	"testing"

	"gridmutex/internal/lint"
)

// TestDataDir returns the testdata/src root next to the caller's package.
func TestDataDir(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		t.Fatal("linttest: cannot locate caller")
	}
	return filepath.Join(filepath.Dir(file), "testdata", "src")
}

// Load loads the given testdata/src/<pkgdir> packages together as one
// program, failing the test on load or type errors.
//
// Corpus packages select themselves into an analyzer's scope by path
// shape: a package under testdata/src/<name>/internal/harness loads with
// import path <name>/internal/harness, which the analyzers' package
// scopes match at the internal/ boundary exactly like the real module
// path.
func Load(t *testing.T, srcRoot string, pkgdirs ...string) *lint.Program {
	t.Helper()
	loader, err := lint.NewLoader(srcRoot)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	loader.ExtraRoot = srcRoot
	prog, err := loader.LoadProgram(pkgdirs)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	return prog
}

// Run loads the corpus packages as one program, runs the analyzer over
// it, and checks its diagnostics (after //lint:allow suppression and the
// exemption audit, as in every gridlint run) against the want comments
// across all the sources.
func Run(t *testing.T, srcRoot string, a *lint.Analyzer, pkgdirs ...string) {
	t.Helper()
	prog := Load(t, srcRoot, pkgdirs...)
	var wants []want
	for _, pkg := range prog.Packages {
		wants = append(wants, collectWants(t, pkg)...)
	}

	matched := make([]bool, len(wants))
	for _, d := range lint.Run(prog, []*lint.Analyzer{a}).Diagnostics {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s: %s:%d: no diagnostic matched want %q", a.Name, w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile("// want (.*)$")
var fragRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

func collectWants(t *testing.T, pkg *lint.Package) []want {
	t.Helper()
	var out []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				frags := fragRe.FindAllStringSubmatch(m[1], -1)
				if len(frags) == 0 {
					t.Fatalf("linttest: %s:%d: want comment without quoted pattern", pos.Filename, pos.Line)
				}
				for _, fr := range frags {
					pat := fr[1]
					if pat == "" {
						pat = fr[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("linttest: %s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, want{file: filepath.Base(pos.Filename), line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}
