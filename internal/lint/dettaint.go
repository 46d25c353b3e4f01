package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// DetTaint is the whole-program determinism-taint analyzer. The
// per-package desdeterminism pass has a structural blind spot: it checks
// the packages on its AppliesTo list file by file, so a DES package
// calling a helper in some *other* package that reads time.Now sails
// through — the call site is clean and the helper is out of scope.
//
// DetTaint closes the gap with the call graph: every function
// transitively reachable from a DES entry point (an exported function or
// method of des, simnet, core, algorithms, harness, explore, faults,
// recovery) is scanned for the same nondeterminism sources —
// wall-clock reads, the global math/rand generator, goroutine spawns,
// select statements, and map iteration that can leak order — wherever
// that function lives. Each finding carries the full call chain from the
// entry point, so the report explains *why* an apparently unrelated
// package is on the determinism hook.
//
// Scope discipline, to avoid double reporting:
//
//   - sources inside packages the per-package desdeterminism pass already
//     covers are NOT re-reported here; desdeterminism owns them;
//   - internal/livenet is a traversal island: it is the live transport,
//     deliberately built on goroutines and the wall clock, and is never
//     wired under the DES (conservative interface resolution would
//     otherwise drag every mutex.Env implementation into the DES slice).
//     Its own discipline is lockdiscipline's job.
var DetTaint = &ProgramAnalyzer{
	Name: "dettaint",
	Doc: "flag wall-clock, global math/rand, goroutine, select and map-order " +
		"nondeterminism in any function transitively reachable from DES entry " +
		"points, with the full call chain",
	Run: runDetTaint,
}

// desEntryPackages marks the packages whose exported API the DES drives;
// their exported functions and methods are the taint roots.
var desEntryPackages = anyUnder(
	"internal/des",
	"internal/simnet",
	"internal/core",
	"internal/algorithms",
	"internal/harness",
	"internal/run",
	"internal/explore",
	"internal/faults",
	"internal/recovery",
)

// taintIslands are packages the traversal never enters (see the analyzer
// doc).
var taintIslands = anyUnder(
	"internal/livenet",
)

func runDetTaint(p *ProgramPass) {
	g := BuildCallGraph(p.Prog)

	var roots []*CallNode
	for _, n := range g.Nodes {
		if desEntryPackages(n.Pkg.Path) && isExportedEntry(n) {
			roots = append(roots, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Name() < roots[j].Name() })

	parent := g.ReachableFrom(roots, func(n *CallNode) bool {
		return taintIslands(n.Pkg.Path)
	})

	// Deterministic report order: nodes sorted by declaration position.
	reachable := make([]*CallNode, 0, len(parent))
	for n := range parent {
		reachable = append(reachable, n)
	}
	sort.Slice(reachable, func(i, j int) bool {
		a := p.Prog.Fset.Position(reachable[i].Decl.Pos())
		b := p.Prog.Fset.Position(reachable[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})

	for _, n := range reachable {
		// desdeterminism already polices its own packages file-locally;
		// re-reporting the same lines under a second name would force
		// double pragmas.
		if DESDeterminism.AppliesTo(n.Pkg.Path) {
			continue
		}
		chain := g.Chain(parent, n)
		entry := chain[0].Func
		scanTaintSources(p, n, chain, entry)
	}
}

// isExportedEntry reports whether the node is part of its package's
// exported API: an exported package function, or an exported method on
// an exported named type. Unexported methods still become reachable
// through interface dispatch edges; they are just not roots themselves.
func isExportedEntry(n *CallNode) bool {
	if !n.Fn.Exported() {
		return false
	}
	recv := n.Fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	named, ok := derefNamed(recv.Type())
	return ok && named.Obj().Exported()
}

// scanTaintSources walks one reachable function's body (closures
// included: a closure's nondeterminism belongs to whoever wrote it) and
// reports every nondeterminism source with the reachability chain.
func scanTaintSources(p *ProgramPass, n *CallNode, chain []ChainEntry, entry string) {
	pkg := n.Pkg
	file := fileOf(pkg, n.Decl)
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.GoStmt:
			p.Reportf(node.Pos(), chain, "go statement reachable from DES entry point %s: spawned goroutines make event interleaving scheduler-dependent", entry)
		case *ast.SelectStmt:
			p.Reportf(node.Pos(), chain, "select statement reachable from DES entry point %s: channel readiness order is scheduler-dependent", entry)
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
				if isPkgIdent(pkg.Info, sel.X, "time") {
					if why, bad := forbiddenTimeFuncs[sel.Sel.Name]; bad {
						p.Reportf(node.Pos(), chain, "time.%s %s on a path reachable from DES entry point %s; thread the simulator's virtual clock through instead", sel.Sel.Name, why, entry)
					}
				}
				if isPkgIdent(pkg.Info, sel.X, "math/rand") || isPkgIdent(pkg.Info, sel.X, "math/rand/v2") {
					if !allowedRandFuncs[sel.Sel.Name] {
						p.Reportf(node.Pos(), chain, "math/rand.%s uses the global generator on a path reachable from DES entry point %s; draw from a seeded *rand.Rand instead", sel.Sel.Name, entry)
					}
				}
			}
		case *ast.RangeStmt:
			if file != nil && mapRangeLeaksOrder(pkg, node, file) {
				p.Reportf(node.Pos(), chain, "iteration over map %s can leak scheduler-chosen order into a path reachable from DES entry point %s; sort the keys first or make the body order-independent", exprString(node.X), entry)
			}
		}
		return true
	})
}

// fileOf returns the *ast.File containing the declaration.
func fileOf(pkg *Package, decl *ast.FuncDecl) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= decl.Pos() && decl.Pos() <= f.FileEnd {
			return f
		}
	}
	return nil
}
