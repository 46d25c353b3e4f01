package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// MsgPurity checks that message structs — the types exchanged through
// the simulated network — are self-contained values: no pointer,
// slice-of-pointer, map, chan or func fields, directly or through
// embedded structs, arrays and slices.
//
// The simulator delivers messages by reference-free value semantics in
// spirit only: a pointer smuggled inside a message aliases sender state
// across simulated nodes, so a mutation on one "machine" is visible on
// another without a message — exactly the kind of impossible causality
// the simulation-vs-testbed comparison would silently absorb. Slices of
// scalars are tolerated (the algorithms copy them on send and receive,
// e.g. the Suzuki-Kasami token), as are interface fields, which the
// wrapper messages (core.Envelope, adaptive.Inner, reliable.Packet) need
// to nest payloads.
//
// A message struct is recognized structurally: any named struct type
// whose method set (value or pointer) contains Kind() string — the
// mutex.Message contract.
var MsgPurity = &Analyzer{
	Name: "msgpurity",
	Doc: "message structs exchanged through the network must not carry " +
		"pointer, slice-of-pointer, map, chan or func fields",
	Run: runMsgPurity,
}

var msgPackages = anyUnder(
	"internal/mutex",
	"internal/algorithms",
	"internal/core",
	"internal/adaptive",
	"internal/reliable",
	"internal/simnet",
	"internal/livenet",
	"internal/recovery",
	// workload and trace sit beside the message plane (request
	// generators, event records); they define no messages today, but
	// being on the list means a Message impl added there tomorrow is
	// checked from its first commit rather than silently skipped.
	"internal/workload",
	"internal/trace",
	// scenario defines no messages either; listed for the same
	// first-commit coverage reason.
	"internal/scenario",
)

func runMsgPurity(p *Pass) {
	for _, pkg := range p.packagesIn(msgPackages) {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				if obj := pkg.Info.Defs[ts.Name]; obj != nil && isMessageType(obj.Type()) {
					checkMessageStruct(p, pkg, ts.Name.Name, st)
				}
				return true
			})
		}
	}
}

// isMessageType reports whether T's pointer method set carries
// Kind() string.
func isMessageType(t types.Type) bool {
	return hasMethodSig(types.NewMethodSet(types.NewPointer(t)), "Kind", "string")
}

func hasMethodSig(ms *types.MethodSet, name, result string) bool {
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok || fn.Name() != name {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
			sig.Results().At(0).Type().String() == result {
			return true
		}
	}
	return false
}

func checkMessageStruct(p *Pass, pkg *Package, name string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		t := pkg.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if why := impureType(t, make(map[types.Type]bool)); why != "" {
			fname := "(embedded)"
			if len(field.Names) > 0 {
				fname = field.Names[0].Name
			}
			p.Reportf(field.Pos(), "message %s field %s %s: messages must be self-contained values — aliasing across simulated nodes breaks node isolation", name, fname, why)
		}
	}
}

// impureType explains why t can alias mutable state across nodes, or
// returns "" when it cannot. Interfaces are accepted (nested message
// payloads); named struct fields are checked recursively.
func impureType(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return fmt.Sprintf("is a pointer (%s)", t)
	case *types.Map:
		return fmt.Sprintf("is a map (%s)", t)
	case *types.Chan:
		return fmt.Sprintf("is a channel (%s)", t)
	case *types.Signature:
		return fmt.Sprintf("is a func (%s)", t)
	case *types.Slice:
		if why := impureType(u.Elem(), seen); why != "" {
			return "has an element that " + why
		}
	case *types.Array:
		if why := impureType(u.Elem(), seen); why != "" {
			return "has an element that " + why
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if why := impureType(u.Field(i).Type(), seen); why != "" {
				return fmt.Sprintf("has field %s that %s", u.Field(i).Name(), why)
			}
		}
	}
	return ""
}
