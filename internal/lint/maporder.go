package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// mapRangeLeaksOrder reports whether rng iterates a map in a way that can
// leak iteration order: not provably order-independent (pure
// counting/accumulation with commutative operators, early constant
// returns, key deletion) and not the collect-keys-then-sort idiom. root is
// the file or declaration being scanned, searched for the statements
// following the loop.
func mapRangeLeaksOrder(pkg *Package, rng *ast.RangeStmt, root ast.Node) bool {
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
	return !collectThenSort(pkg, rng, root)
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
func collectThenSort(p *Package, rng *ast.RangeStmt, root ast.Node) bool {
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
	block := enclosingBlock(root, rng)
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

// enclosingBlock returns the statement list under root directly
// containing stmt.
func enclosingBlock(root ast.Node, stmt ast.Stmt) []ast.Stmt {
	var found []ast.Stmt
	ast.Inspect(root, func(n ast.Node) bool {
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
