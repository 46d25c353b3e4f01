package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// VirtualTime flags arithmetic that mixes virtual-time expressions with
// raw wall-time duration literals outside the latency model.
//
// des.Time is (deliberately) an alias of time.Duration, so the type
// system cannot keep "an instant of simulated time" apart from "5
// milliseconds someone hardcoded". Inside the latency model
// (internal/topology, internal/simnet) literal durations are the point:
// they ARE the modeled network. Everywhere else, a literal added to or
// compared against a computed duration is a smell: timeouts, deadlines
// and intervals must come from configuration or from the topology, or
// the simulated system behaves differently from the deployed one the
// moment someone retunes a constant.
//
// The rule: a binary +, -, or ordered comparison where one operand is a
// time-unit literal (time.Second, 50*time.Millisecond, ...) and the
// other is a non-constant expression of duration type.
var VirtualTime = &Analyzer{
	Name: "virtualtime",
	Doc: "flag arithmetic mixing virtual-time values with raw " +
		"time.Duration literals outside the latency model",
	Run: runVirtualTime,
}

var virtualTimePackages = anyUnder(
	"internal/des",
	"internal/algorithms",
	"internal/core",
	"internal/adaptive",
	"internal/workload",
	"internal/check",
	"internal/harness",
	"internal/run",
	"internal/reliable",
	// trace and stats consume virtual timestamps wholesale (event logs,
	// response-time aggregation) and fleet forwards per-job deadlines;
	// none of them is the latency model, so literal mixing is as wrong
	// there as in the algorithms.
	"internal/trace",
	"internal/stats",
	"internal/fleet",
)

func runVirtualTime(p *Pass) {
	for _, pkg := range p.packagesIn(virtualTimePackages) {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				switch be.Op {
				case token.ADD, token.SUB, token.LSS, token.LEQ, token.GTR, token.GEQ:
					checkMix(p, pkg, be, be.X, be.Y)
					checkMix(p, pkg, be, be.Y, be.X)
				}
				return true
			})
		}
	}
}

// checkMix reports when lit is a duration-unit literal and other is a
// non-constant duration-typed expression.
func checkMix(p *Pass, pkg *Package, be *ast.BinaryExpr, lit, other ast.Expr) {
	if !durationLiteral(pkg, lit) {
		return
	}
	tv, ok := pkg.Info.Types[other]
	if !ok || tv.Value != nil {
		return // other side is constant too: pure config arithmetic
	}
	if !isDurationType(tv.Type) {
		return
	}
	p.Reportf(be.Pos(), "arithmetic mixes a raw duration literal (%s) with virtual time (%s); name the constant in the latency model or configuration so simulated and deployed behaviour stay coupled", types.ExprString(lit), types.ExprString(other))
}

// durationLiteral recognizes bare time-unit selectors (time.Second) and
// constant multiples of them (50 * time.Millisecond, time.Duration(50) *
// time.Millisecond).
func durationLiteral(pkg *Package, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return durationLiteral(pkg, e.X)
	case *ast.SelectorExpr:
		if !isPkgIdent(pkg.Info, e.X, "time") {
			return false
		}
		switch e.Sel.Name {
		case "Nanosecond", "Microsecond", "Millisecond", "Second", "Minute", "Hour":
			return true
		}
		return false
	case *ast.BinaryExpr:
		if e.Op != token.MUL {
			return false
		}
		// Constant * unit (either side), itself constant overall.
		if tv, ok := pkg.Info.Types[e]; !ok || tv.Value == nil {
			return false
		}
		return durationLiteral(pkg, e.X) || durationLiteral(pkg, e.Y)
	}
	return false
}

func isDurationType(t types.Type) bool {
	return t != nil && namedType(t, "time", "Duration")
}
