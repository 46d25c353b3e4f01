package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph is a static over-approximation of the program's call
// structure, built from the type-checked ASTs alone:
//
//   - a call whose callee resolves to a declared function or a method on
//     a concrete receiver contributes one edge;
//   - a call through an interface method contributes an edge to every
//     method of that name on every program type satisfying the interface
//     (class-hierarchy analysis) — conservative, so reachability never
//     under-reports;
//   - calls inside a function literal are attributed to the enclosing
//     declared function, which is the right granularity for taint: a
//     closure's nondeterminism belongs to whoever wrote it;
//   - calls through plain func values are not resolved. The repo's own
//     callback plumbing always runs closures defined in DES packages, so
//     their bodies are still scanned via the attribution rule above.
//
// Functions whose bodies live outside the Program (standard library,
// unloaded packages) have no node; analyzers treat interesting external
// callees (time.Now, the global math/rand) as sources syntactically.
type CallGraph struct {
	// Nodes maps every function declared in the program to its node.
	Nodes map[*types.Func]*CallNode
}

// CallNode is one declared function or method.
type CallNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	Callees []*CallNode
	callees map[*CallNode]bool
}

// Name renders the node as pkg.Func or pkg.(Type).Method, with the
// module prefix stripped for readability.
func (n *CallNode) Name() string {
	pkg := stripModulePrefix(n.Pkg.Path)
	if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		name := t.String()
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		return fmt.Sprintf("%s.(%s).%s", pkg, name, n.Fn.Name())
	}
	return pkg + "." + n.Fn.Name()
}

func (n *CallNode) addCallee(c *CallNode) {
	if c == nil || c == n {
		return
	}
	if n.callees == nil {
		n.callees = make(map[*CallNode]bool)
	}
	if n.callees[c] {
		return
	}
	n.callees[c] = true
	n.Callees = append(n.Callees, c)
}

// methodImpl is the CHA index key: an exact method name. The value lists
// every program-declared method with that name together with its
// receiver type, so an interface call resolves by filtering the list
// with types.Implements.
type methodImpl struct {
	recv types.Type // receiver's named type (not pointer)
	node *CallNode
}

// buildCallGraph constructs the call graph of the program.
func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*CallNode)}

	// Pass 1: one node per declared function/method.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Nodes[obj] = &CallNode{Fn: obj, Decl: fd, Pkg: pkg}
			}
		}
	}

	// CHA index: method name -> implementations on program types.
	impls := make(map[string][]methodImpl)
	for fn, node := range g.Nodes {
		sig := fn.Type().(*types.Signature)
		recv := sig.Recv()
		if recv == nil {
			continue
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		impls[fn.Name()] = append(impls[fn.Name()], methodImpl{recv: t, node: node})
	}

	// Pass 2: edges (in map order; callees are sorted below).
	for _, node := range g.Nodes {
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				g.addCallEdges(node, call, impls)
			}
			return true
		})
	}

	// Deterministic callee order, so chains and reports are stable.
	for _, node := range g.Nodes {
		sort.Slice(node.Callees, func(i, j int) bool {
			return node.Callees[i].Name() < node.Callees[j].Name()
		})
	}
	return g
}

// addCallEdges resolves one call expression into zero or more edges.
func (g *CallGraph) addCallEdges(from *CallNode, call *ast.CallExpr, impls map[string][]methodImpl) {
	pkg := from.Pkg
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			from.addCallee(g.Nodes[fn])
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				// Interface dispatch: CHA over program types.
				name := sel.Obj().Name()
				for _, impl := range impls[name] {
					if implementsIface(impl.recv, iface) {
						from.addCallee(impl.node)
					}
				}
				return
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				from.addCallee(g.Nodes[fn])
			}
			return
		}
		// Qualified call (pkgname.Func) or method expression.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			from.addCallee(g.Nodes[fn])
		}
	}
}

// implementsIface reports whether T or *T satisfies the interface.
func implementsIface(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	return types.Implements(types.NewPointer(t), iface)
}

// ReachableFrom runs a breadth-first search from the nodes isRoot accepts
// and returns, for every reachable node, its predecessor on a shortest
// chain (roots map to nil). skip prunes traversal: a node for which skip
// returns true is neither visited nor traversed through. Roots are taken
// in name order, so which of several shortest chains is recorded does
// not depend on map iteration.
func (g *CallGraph) ReachableFrom(isRoot, skip func(*CallNode) bool) map[*CallNode]*CallNode {
	var queue []*CallNode
	for _, n := range g.Nodes {
		if isRoot(n) && !skip(n) {
			queue = append(queue, n)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].Name() < queue[j].Name() })
	parent := make(map[*CallNode]*CallNode, len(queue))
	for _, r := range queue {
		parent[r] = nil
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callees {
			if _, seen := parent[c]; !seen && !skip(c) {
				parent[c] = n
				queue = append(queue, c)
			}
		}
	}
	return parent
}

// Chain materializes the root→node chain recorded by ReachableFrom as
// display names (CallNode.Name), outermost first.
func (g *CallGraph) Chain(parent map[*CallNode]*CallNode, node *CallNode) []string {
	var out []string
	for n := node; n != nil; n = parent[n] {
		out = append(out, n.Name())
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
