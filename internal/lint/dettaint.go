package lint

import (
	"go/ast"
	"go/types"
)

// DetTaint forbids sources of nondeterminism under the DES: wall-clock
// reads, the global math/rand generator, goroutines, select statements,
// and iteration over maps whose order can reach state or messages (see
// mapRangeLeaksOrder for what is provably harmless).
//
// Its scope is every file of a DES-driven package, plus every function
// transitively reachable through the call graph from those packages'
// exported API, wherever that function lives: a DES package calling a
// helper in some other package that reads time.Now has a clean call site
// and an out-of-list helper, and only reachability finds it. A finding
// outside the package list carries the call chain from the entry point,
// so the report explains why an apparently unrelated package is on the
// determinism hook.
//
// internal/livenet is a traversal island: it is the live transport,
// deliberately built on goroutines and the wall clock, and is never wired
// under the DES (conservative interface resolution would otherwise drag
// every mutex.Env implementation into the DES slice). Its own discipline
// is lockdiscipline's job.
var DetTaint = &Analyzer{
	Name: "dettaint",
	Doc: "forbid wall-clock time, global math/rand, goroutines, select and " +
		"order-dependent map iteration in DES-driven packages and in any " +
		"function reachable from their exported API, with the call chain",
	Run: runDetTaint,
}

// desPackages are the DES-driven packages: every file in them is scanned
// and their exported functions and methods are the reachability roots.
var desPackages = anyUnder(
	"internal/des",
	"internal/simnet",
	"internal/algorithms",
	"internal/core",
	"internal/adaptive",
	"internal/workload",
	"internal/check",
	"internal/trace",
	"internal/stats",
	"internal/harness",
	"internal/run",
	"internal/reliable",
	"internal/explore",
	"internal/recovery",
	"internal/faults",
	// fleet is the one goroutine island in the simulation stack — the
	// worker pool the harness fans repetitions out on. Its jobs are pure
	// functions of their seeds, each on a private Simulator, and its
	// results are merged by job index, so scheduler nondeterminism cannot
	// reach any aggregate (DESIGN.md §8). It is still on this list: the
	// island is one specific `go` statement, excused in place with a
	// reasoned //lint:allow, not a package-wide blind spot.
	"internal/fleet",
	// scenario compiles declarative fixtures onto the simulation stack
	// and promises byte-identical verdicts per seed, so it obeys the
	// same determinism rules as the packages it drives.
	"internal/scenario",
)

// taintIslands are packages the traversal never enters (see the analyzer
// doc).
var taintIslands = anyUnder(
	"internal/livenet",
)

// forbiddenTimeFuncs are the package-level time functions that read or
// depend on the wall clock. Pure constructors and formatters (Duration,
// ParseDuration, Unix...) stay legal.
var forbiddenTimeFuncs = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Sleep":     "blocks on the wall clock",
	"After":     "schedules on the wall clock",
	"Tick":      "schedules on the wall clock",
	"NewTicker": "schedules on the wall clock",
	"NewTimer":  "schedules on the wall clock",
	"AfterFunc": "schedules on the wall clock",
}

// allowedRandFuncs construct seeded generators; everything else on the
// math/rand package operates the process-global, unseeded source.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDetTaint(p *Pass) {
	for _, pkg := range p.packagesIn(desPackages) {
		for _, f := range pkg.Files {
			scanDetSources(p, pkg, f, "in a DES-driven package", nil)
		}
	}

	g := p.Prog.CallGraph()
	parent := g.ReachableFrom(func(n *CallNode) bool {
		return desPackages(n.Pkg.Path) && isExportedEntry(n)
	}, func(n *CallNode) bool {
		return taintIslands(n.Pkg.Path)
	})
	for n := range parent {
		if desPackages(n.Pkg.Path) {
			continue // scanned file by file above
		}
		chain := g.Chain(parent, n)
		scanDetSources(p, n.Pkg, n.Decl, "reachable from DES entry point "+chain[0], chain)
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

// scanDetSources walks one file or function declaration (closures
// included: a closure's nondeterminism belongs to whoever wrote it) and
// reports every nondeterminism source. where says why the code is in
// scope; chain is the reachability chain for code outside desPackages.
func scanDetSources(p *Pass, pkg *Package, root ast.Node, where string, chain []string) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			p.ReportVia(chain, n.Pos(), "go statement %s: spawned goroutines make event interleaving scheduler-dependent", where)
		case *ast.SelectStmt:
			p.ReportVia(chain, n.Pos(), "select statement %s: channel readiness order is scheduler-dependent", where)
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				break
			}
			if isPkgIdent(pkg.Info, sel.X, "time") {
				if why, bad := forbiddenTimeFuncs[sel.Sel.Name]; bad {
					p.ReportVia(chain, n.Pos(), "time.%s %s on a path %s; use the simulator's virtual clock", sel.Sel.Name, why, where)
				}
			} else if isPkgIdent(pkg.Info, sel.X, "math/rand") || isPkgIdent(pkg.Info, sel.X, "math/rand/v2") {
				if !allowedRandFuncs[sel.Sel.Name] {
					p.ReportVia(chain, n.Pos(), "math/rand.%s uses the global generator on a path %s; draw from a seeded *rand.Rand instead", sel.Sel.Name, where)
				}
			}
		case *ast.RangeStmt:
			if mapRangeLeaksOrder(pkg, n, root) {
				p.ReportVia(chain, n.Pos(), "iteration over map %s has scheduler-chosen order that can reach state or messages on a path %s; sort the keys first, make the body order-independent, or annotate //lint:allow dettaint with a reason", types.ExprString(n.X), where)
			}
		}
		return true
	})
}
