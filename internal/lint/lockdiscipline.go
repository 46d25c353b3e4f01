package lint

import (
	"go/ast"
	"go/types"
)

// LockDiscipline forbids a channel send while a mutex is held in the
// goroutine-and-mutex packages (the live transports and the fleet pool):
// the receiver may be a mailbox goroutine that needs the same mutex to
// drain, which is the classic livenet deadlock — one that neither the
// race detector nor the live tests' happy paths provoke.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "forbid channel sends while a sync.Mutex/RWMutex is held",
	Run:  runLockDiscipline,
}

var lockPackages = anyUnder(
	"internal/livenet",
	"internal/reliable",
	// fleet IS the goroutine pool (its one `go` statement carries a
	// reasoned //lint:allow dettaint), so it also gets the
	// concurrent-code discipline checks.
	"internal/fleet",
)

func isMutexType(t types.Type) bool {
	return namedType(t, "sync", "Mutex") || namedType(t, "sync", "RWMutex")
}

// runLockDiscipline scans every function body and function literal as
// its own scope: a closure may run on another goroutine, much later, or
// never, so it neither inherits nor discharges the enclosing function's
// held set.
func runLockDiscipline(p *Pass) {
	for _, pkg := range p.packagesIn(lockPackages) {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						scanHeld(p, pkg, n.Body.List, nil)
					}
				case *ast.FuncLit:
					scanHeld(p, pkg, n.Body.List, nil)
				}
				return true
			})
		}
	}
}

// mutexCall returns (receiver expression string, method name) when call
// is a Lock/Unlock/RLock/RUnlock on a mutex-typed receiver.
func mutexCall(pkg *Package, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	t := pkg.Info.TypeOf(sel.X)
	if t == nil || !isMutexType(t) {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// scanHeld walks a statement list in program order, tracking which mutex
// receivers are held, and reports channel sends while the held set is
// non-empty. Nested control-flow blocks are scanned with a copy of the
// held set: acquisitions and releases inside a branch are assumed not to
// outlive it, a deliberate approximation that keeps the analysis linear
// and errs toward reporting (the escape hatch covers the rare deliberate
// send-under-lock).
func scanHeld(p *Pass, pkg *Package, stmts []ast.Stmt, held []string) {
	holds := func() bool { return len(held) > 0 }
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if recv, method, ok := mutexCall(pkg, call); ok {
					switch method {
					case "Lock", "RLock":
						held = append(held, recv)
					case "Unlock", "RUnlock":
						held = removeHeld(held, recv)
					}
				}
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() holds until function exit: the mutex
			// stays held for the rest of this scan.
			continue
		case *ast.SendStmt:
			if holds() {
				p.Reportf(s.Pos(), "channel send while holding mutex %s; the receiver may need the same lock to make progress", held[len(held)-1])
			}
		case *ast.BlockStmt:
			scanHeld(p, pkg, s.List, append([]string(nil), held...))
		case *ast.IfStmt:
			scanIf(p, pkg, s, held)
		case *ast.ForStmt:
			scanHeld(p, pkg, s.Body.List, append([]string(nil), held...))
		case *ast.RangeStmt:
			scanHeld(p, pkg, s.Body.List, append([]string(nil), held...))
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanHeld(p, pkg, cc.Body, append([]string(nil), held...))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanHeld(p, pkg, cc.Body, append([]string(nil), held...))
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					if snd, ok := cc.Comm.(*ast.SendStmt); ok && holds() {
						p.Reportf(snd.Pos(), "channel send while holding mutex %s; the receiver may need the same lock to make progress", held[len(held)-1])
					}
					scanHeld(p, pkg, cc.Body, append([]string(nil), held...))
				}
			}
		}
	}
}

func scanIf(p *Pass, pkg *Package, s *ast.IfStmt, held []string) {
	scanHeld(p, pkg, s.Body.List, append([]string(nil), held...))
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		scanHeld(p, pkg, e.List, append([]string(nil), held...))
	case *ast.IfStmt:
		scanIf(p, pkg, e, held)
	}
}

func removeHeld(held []string, recv string) []string {
	out := held[:0:len(held)]
	removed := false
	for _, h := range held {
		if !removed && h == recv {
			removed = true
			continue
		}
		out = append(out, h)
	}
	return out
}
