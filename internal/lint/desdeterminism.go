package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DESDeterminism forbids sources of nondeterminism inside DES-driven
// packages: wall-clock reads, the global math/rand generator, goroutines,
// select statements, and iteration over maps whose order can reach state
// or messages.
//
// Map ranges are allowed when the loop body is provably order-independent
// (pure counting/accumulation with commutative operators, early constant
// returns, key deletion) or when the collected keys are sorted before
// use (the append-keys-then-sort.Slice idiom). Anything else needs a
// //lint:allow desdeterminism comment with a reason.
var DESDeterminism = &Analyzer{
	Name: "desdeterminism",
	Doc: "forbid wall-clock time, global math/rand, goroutines, select, and " +
		"order-dependent map iteration in DES-driven packages",
	// internal/fleet is the one goroutine island in the simulation stack —
	// the worker pool the harness fans repetitions out on. Its jobs are
	// pure functions of their seeds, each on a private Simulator, and its
	// results are merged by job index, so scheduler nondeterminism cannot
	// reach any aggregate (DESIGN.md §8). It is still on this list: the
	// island is one specific `go` statement, excused in place with a
	// reasoned //lint:allow, not a package-wide blind spot.
	AppliesTo: anyUnder(
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
		// fleet joined the list when gridlint grew whole-program taint:
		// its goroutine pool is a deliberate, documented exception, so the
		// `go` statement it needs carries a //lint:allow pragma with the
		// DESIGN.md §8 justification instead of a blanket package opt-out.
		"internal/fleet",
		// scenario compiles declarative fixtures onto the simulation stack
		// and promises byte-identical verdicts per seed, so it obeys the
		// same determinism rules as the packages it drives.
		"internal/scenario",
	),
	Run: runDESDeterminism,
}

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

func runDESDeterminism(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "go statement in a DES-driven package: handlers must stay single-threaded to keep event interleaving reproducible")
			case *ast.SelectStmt:
				p.Reportf(n.Pos(), "select statement in a DES-driven package: channel readiness order is scheduler-dependent")
			case *ast.CallExpr:
				checkDESCall(p, n)
			case *ast.RangeStmt:
				checkMapRange(p, n, f)
				return true
			}
			return true
		})
	}
}

func checkDESCall(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if isPkgIdent(p.Pkg.Info, sel.X, "time") {
		if why, bad := forbiddenTimeFuncs[sel.Sel.Name]; bad {
			p.Reportf(call.Pos(), "time.%s %s; use the simulator's virtual clock", sel.Sel.Name, why)
		}
		return
	}
	if isPkgIdent(p.Pkg.Info, sel.X, "math/rand") || isPkgIdent(p.Pkg.Info, sel.X, "math/rand/v2") {
		if !allowedRandFuncs[sel.Sel.Name] {
			p.Reportf(call.Pos(), "math/rand.%s uses the global generator; draw from a seeded *rand.Rand instead", sel.Sel.Name)
		}
	}
}

// checkMapRange flags `range m` over a map unless the iteration provably
// cannot leak order.
func checkMapRange(p *Pass, rng *ast.RangeStmt, file *ast.File) {
	if mapRangeLeaksOrder(p.Pkg, rng, file) {
		p.Reportf(rng.Pos(), "iteration over map %s has scheduler-chosen order that can reach state or messages; sort the keys first, make the body order-independent, or annotate //lint:allow desdeterminism with a reason", types.ExprString(rng.X))
	}
}

// mapRangeLeaksOrder reports whether rng iterates a map in a way that can
// leak iteration order: not provably order-independent and not the
// collect-keys-then-sort idiom. Shared with the whole-program taint pass,
// which applies the same judgment to packages outside the per-file set.
func mapRangeLeaksOrder(pkg *Package, rng *ast.RangeStmt, file *ast.File) bool {
	t := pkg.Info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return false
	}
	if orderIndependentBlock(pkg, rng.Body) {
		return false
	}
	return !collectThenSort(pkg, rng, file)
}

// orderIndependentBlock reports whether executing the statements in any
// order yields the same result. The whitelist is deliberately small:
//
//   - v++ / v-- on an identifier
//   - compound assignments with commutative operators (+= *= |= &= ^=)
//     whose right-hand side makes no function calls
//   - delete(m, k)
//   - return of constants only
//   - continue
//   - if statements whose condition makes no calls (len/cap excepted)
//     and whose branches are themselves order-independent
//   - nested blocks of the above
func orderIndependentBlock(p *Package, b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if !orderIndependentStmt(p, s) {
			return false
		}
	}
	return true
}

func orderIndependentStmt(p *Package, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		_, ok := s.X.(*ast.Ident)
		return ok
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			return len(s.Rhs) == 1 && callFree(s.Rhs[0])
		}
		return false
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				return true
			}
		}
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if !constantExpr(p, r) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.IfStmt:
		if s.Init != nil || !callFree(s.Cond) {
			return false
		}
		if !orderIndependentBlock(p, s.Body) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return orderIndependentBlock(p, e)
		case *ast.IfStmt:
			return orderIndependentStmt(p, e)
		}
		return false
	case *ast.BlockStmt:
		return orderIndependentBlock(p, s)
	}
	return false
}

// callFree reports whether e contains no function calls except len and
// cap, whose results cannot observe iteration order.
func callFree(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if call, isCall := n.(*ast.CallExpr); isCall {
			if id, isIdent := call.Fun.(*ast.Ident); isIdent && (id.Name == "len" || id.Name == "cap") {
				return true
			}
			ok = false
			return false
		}
		return true
	})
	return ok
}

// constantExpr reports whether e evaluates to a compile-time constant.
func constantExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// collectThenSort recognizes the sorted-keys idiom: the loop body only
// appends the range key (or value) to one slice, and a later statement in
// the same enclosing block sorts that slice before anything else touches
// it.
//
//	out := make([]uint64, 0, len(m))
//	for k := range m {
//	    out = append(out, k)
//	}
//	sort.Slice(out, ...)
func collectThenSort(p *Package, rng *ast.RangeStmt, file *ast.File) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	target, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}

	// Find the statement list containing the range and scan forward: the
	// first use of target must be a sort call.
	block := enclosingBlock(file, rng)
	if block == nil {
		return false
	}
	idx := -1
	for i, s := range block {
		if s == ast.Stmt(rng) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	for _, s := range block[idx+1:] {
		if isSortOf(p, s, target.Name) {
			return true
		}
		if usesIdent(s, target.Name) {
			return false
		}
	}
	return false
}

// enclosingBlock returns the statement list directly containing stmt.
func enclosingBlock(file *ast.File, stmt ast.Stmt) []ast.Stmt {
	var found []ast.Stmt
	ast.Inspect(file, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for _, s := range list {
			if s == stmt {
				found = list
				return false
			}
		}
		return true
	})
	return found
}

// isSortOf reports whether s calls a sorting function with the named
// identifier as its first argument: sort.Slice, sort.Sort, sort.Strings,
// sort.Ints, slices.Sort, slices.SortFunc.
func isSortOf(p *Package, s ast.Stmt, name string) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if !isPkgIdent(p.Info, sel.X, "sort") && !isPkgIdent(p.Info, sel.X, "slices") {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && arg.Name == name
}

// usesIdent reports whether the statement mentions the identifier.
func usesIdent(s ast.Stmt, name string) bool {
	used := false
	ast.Inspect(s, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			used = true
			return false
		}
		return true
	})
	return used
}
