package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocHygiene guards the allocation claim of the simulator hot path
// (the Allocs tests of des and simnet: steady-state send/deliver stays
// at one allocation per message or fewer). Those tests prove the
// property for the configurations they run; this analyzer keeps the
// *code* honest for every other configuration by
// flagging constructs that heap-allocate on every execution, on any
// function reachable from the hot-path roots:
//
//   - function literals (closure environments escape);
//   - fmt.* calls (variadic ...any boxes every argument);
//   - string concatenation with a non-constant operand;
//   - make(map) / make(chan) / new(T);
//   - interface boxing of struct-typed values at call argument
//     positions (the Message-in-Envelope trap PR 5 eliminated).
//
// Roots are the named hot-path functions of des, simnet and core —
// Send/send, Deliver/AtDeliver, Step, push/pop, note — and
// reachability is confined to those three packages: a call that leaves
// the hot core (into stats, trace, check) is by construction on a slow
// or setup path.
//
// panic(...) argument subtrees are skipped: a panic is the end of the
// run, not a steady-state event, and its message formatting is welcome
// to allocate.
//
// Deliberate allocations on cold sub-paths (freelist growth, the boxing
// fallback for non-pooled capabilities, lazily built diagnostic maps)
// carry //lint:allow allochygiene pragmas with reasons — the analyzer
// is a tripwire, and the pragma inventory is the audited list of every
// hole in the zero-alloc story.
var AllocHygiene = &Analyzer{
	Name: "allochygiene",
	Doc: "flag per-event heap allocation (closures, fmt, string concat, " +
		"make/new, interface boxing) on functions reachable from the " +
		"simulator hot path",
	Run: runAllocHygiene,
}

// hotPackages confine both root selection and traversal.
var hotPackages = anyUnder(
	"internal/des",
	"internal/simnet",
	"internal/core",
)

// hotRootNames are the hot-path functions by name. Send/Deliver are the
// public event surface; AtDeliver is the typed delivery hook; Step,
// push, pop drive the event queue; note feeds the per-kind counters on
// every send.
var hotRootNames = map[string]bool{
	"Send":      true,
	"send":      true,
	"Deliver":   true,
	"AtDeliver": true,
	"Step":      true,
	"push":      true,
	"pop":       true,
	"note":      true,
}

func runAllocHygiene(p *Pass) {
	g := p.Prog.CallGraph()

	parent := g.ReachableFrom(func(n *CallNode) bool {
		return hotRootNames[n.Fn.Name()]
	}, func(n *CallNode) bool {
		return !hotPackages(n.Pkg.Path)
	})
	for n := range parent {
		scanAllocs(p, n.Pkg, n.Decl, g.Chain(parent, n))
	}
}

// scanAllocs reports allocating constructs in one hot function body.
func scanAllocs(p *Pass, pkg *Package, fd *ast.FuncDecl, chain []string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(n) {
				// Panic formatting is cold by definition; skip the whole
				// argument subtree.
				return false
			}
			checkAllocCall(p, pkg, n, chain)
		case *ast.FuncLit:
			p.ReportVia(chain, n.Pos(), "function literal on the hot path allocates its closure environment per event; hoist it to a method or package function")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringConcat(pkg, n) {
				p.ReportVia(chain, n.Pos(), "string concatenation on the hot path allocates per event; precompute the string or use fixed identifiers")
			}
		}
		return true
	})
}

// isPanicCall matches panic(...).
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// checkAllocCall flags fmt calls, make(map/chan), new, and interface
// boxing at argument positions.
func checkAllocCall(p *Pass, pkg *Package, call *ast.CallExpr, chain []string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if len(call.Args) > 0 {
				switch pkg.Info.TypeOf(call.Args[0]).Underlying().(type) {
				case *types.Map:
					p.ReportVia(chain, call.Pos(), "make(map) on the hot path allocates per event; preallocate the map at construction time")
				case *types.Chan:
					p.ReportVia(chain, call.Pos(), "make(chan) on the hot path allocates per event — and channels have no place under the DES at all")
				}
			}
			return
		case "new":
			p.ReportVia(chain, call.Pos(), "new(%s) on the hot path allocates per event; draw from a freelist or reuse a field", types.ExprString(call.Args[0]))
			return
		}
	case *ast.SelectorExpr:
		if isPkgIdent(pkg.Info, fun.X, "fmt") {
			p.ReportVia(chain, call.Pos(), "fmt.%s on the hot path boxes every argument into ...any; move formatting off the per-event path", fun.Sel.Name)
			return
		}
	}
	checkBoxingArgs(p, pkg, call, chain)
}

// checkBoxingArgs flags struct-typed values passed to interface-typed
// parameters: the conversion heap-allocates the struct copy per call.
// Pointer, basic and already-interface arguments are free.
func checkBoxingArgs(p *Pass, pkg *Package, call *ast.CallExpr, chain []string) {
	sig, ok := pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if ok && sig.Variadic() {
		// Variadic calls allocate the backing slice too, but the repo's
		// hot path has none except append (no signature) — keep the rule
		// focused on fixed-arity boxing.
		return
	}
	for i, arg := range call.Args {
		var paramT types.Type
		if ok && i < sig.Params().Len() {
			paramT = sig.Params().At(i).Type()
		}
		if paramT == nil {
			continue
		}
		if _, isIface := paramT.Underlying().(*types.Interface); !isIface {
			continue
		}
		argT := pkg.Info.TypeOf(arg)
		if argT == nil {
			continue
		}
		if _, already := argT.Underlying().(*types.Interface); already {
			continue
		}
		if _, isStruct := argT.Underlying().(*types.Struct); isStruct {
			p.ReportVia(chain, arg.Pos(), "struct value %s boxed into interface parameter on the hot path allocates a copy per event; pass a pointer or use the typed delivery hook", types.ExprString(arg))
		}
	}
}

// isStringConcat reports whether the + expression produces a string and
// has at least one non-constant operand (constant folding is free).
func isStringConcat(pkg *Package, e *ast.BinaryExpr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.String && basic.Kind() != types.UntypedString {
		return false
	}
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
		return false
	}
	return true
}
