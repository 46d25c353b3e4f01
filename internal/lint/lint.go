// Package lint implements gridlint: a suite of static analysis passes
// enforcing the determinism and concurrency invariants the simulation's
// reproducibility claims rest on.
//
// The repo's core claim — bit-identical reruns of the paper's Grid'5000
// experiments in virtual time — holds only if every DES-driven state
// machine is a pure function of its inputs: no wall-clock reads, no
// unsorted map iteration feeding state or messages, no goroutines or
// unseeded randomness inside event handlers. Nothing in the language
// enforces that, so this package does.
//
// The design mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is self-contained: packages are loaded with go/parser
// and type-checked with go/types, resolving module-internal imports from
// the source tree and standard library imports from GOROOT source. That
// keeps the linter dependency-free, at the cost of the modular fact
// plumbing the x/tools driver provides — which the analyzers here do not
// need: every analyzer runs over the whole loaded Program.
//
// Suppression: a diagnostic is dropped when the offending line, or the
// line directly above it, carries a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// Every run audits these pragmas (see auditExemptions): one that
// suppresses nothing, names an unknown analyzer or omits the reason is
// itself a finding — an escape hatch without a live, recorded
// justification is how invariants rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named pass over a type-checked program. Each analyzer
// decides for itself which packages and functions it looks at (a package
// list, call-graph reachability, or both); the driver only hands it the
// program.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces
	// and why.
	Doc string
	// Run inspects the program and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one program.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportVia(nil, pos, format, args...)
}

// ReportVia records a diagnostic at pos together with the call chain
// explaining how the flagged code is reached from an entry point.
func (p *Pass) ReportVia(chain []string, pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Chain, set by the call-graph analyzers, is the call chain from an
	// entry point to the function containing the finding, outermost
	// first.
	Chain []string
}

// String renders the diagnostic the way go vet does, with the call chain
// (if any) appended.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
	if len(d.Chain) > 0 {
		s += "\n\tvia " + strings.Join(d.Chain, " → ")
	}
	return s
}

// sortDiagnostics orders findings by position, then analyzer.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
}

// Result is one run of a set of analyzers over one program.
type Result struct {
	// Diagnostics are the findings no //lint:allow pragma covers, plus
	// the exemption audit's findings about the pragmas themselves,
	// sorted.
	Diagnostics []Diagnostic
	// Exemptions are every //lint:allow pragma seen, with usage marked.
	Exemptions []*Exemption
}

// Run executes the analyzers on the program, drops findings covered by
// //lint:allow pragmas, and audits the pragmas: one that suppressed
// nothing, names an analyzer not among those run, or records no reason is
// itself a finding.
func Run(prog *Program, analyzers []*Analyzer) Result {
	var exs []*Exemption
	for _, pkg := range prog.Packages {
		exs = append(exs, collectExemptions(pkg)...)
	}
	idx := newExemptionIndex(exs)

	var out []Diagnostic
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		pass := &Pass{Analyzer: a, Prog: prog}
		a.Run(pass)
		for _, d := range pass.diags {
			if !idx.suppresses(d) {
				out = append(out, d)
			}
		}
	}
	out = append(out, auditExemptions(exs, known)...)

	sortDiagnostics(out)
	sortExemptions(exs)
	return Result{Diagnostics: out, Exemptions: exs}
}

// All returns the gridlint suite.
func All() []*Analyzer {
	return []*Analyzer{
		AllocHygiene,
		DetTaint,
		LockDiscipline,
		MsgPurity,
		VirtualTime,
	}
}

// PathUnder reports whether the import path equals prefix or lives below
// it (prefix "a/b" matches "a/b" and "a/b/c", not "a/bc").
func PathUnder(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// anyUnder builds a package-scope predicate matching any of the given
// prefixes, compared against the path with everything before an
// "internal/" or "cmd/" path segment stripped — so scopes work both on
// real module paths (gridmutex/internal/des) and on the synthetic paths
// the test corpus loads packages under (dettaint/internal/util).
func anyUnder(prefixes ...string) func(string) bool {
	return func(pkgPath string) bool {
		rel := stripModulePrefix(pkgPath)
		for _, p := range prefixes {
			if PathUnder(rel, p) {
				return true
			}
		}
		return false
	}
}

// stripModulePrefix cuts everything before the first "internal/" or
// "cmd/" segment at a path boundary.
func stripModulePrefix(pkgPath string) string {
	for _, seg := range []string{"internal/", "cmd/"} {
		if strings.HasPrefix(pkgPath, seg) {
			return pkgPath
		}
		if i := strings.Index(pkgPath, "/"+seg); i >= 0 {
			return pkgPath[i+1:]
		}
	}
	return pkgPath
}

// packagesIn returns the program's packages the scope accepts, in path
// order.
func (p *Pass) packagesIn(scope func(string) bool) []*Package {
	var out []*Package
	for _, pkg := range p.Prog.Packages {
		if scope(pkg.Path) {
			out = append(out, pkg)
		}
	}
	return out
}

// isPkgIdent reports whether e is an identifier naming an imported package
// with the given import path (e.g. the "time" in time.Now).
func isPkgIdent(info *types.Info, e ast.Expr, path string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// namedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func namedType(t types.Type, pkgPath, name string) bool {
	n, ok := derefNamed(t)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// derefNamed strips one level of pointer indirection and returns the
// named type underneath, if any.
func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}
