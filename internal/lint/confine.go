package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Confine checks the confinement table through the type checker's uses,
// so an alias, a method value, an instantiation or a literal key counts.
var Confine = &Analyzer{
	Name: "confine",
	Doc:  "flag a use of a symbol or an import outside the packages or functions the confinement table allows it in",
	Run:  runConfine,
}

// confinement is one row. pkg is a path below the module root
// (internal/run, bench) or in the standard library; name is "Func",
// "Type.Member", or "" for importing pkg. An allow entry is a package
// tree or a top-level function "pkg.Func"; none allows no use. pkg may
// use its own symbol unless the row names functions of it.
type confinement struct {
	pkg, name string
	allow     []string
	why       string
}

var (
	assemblers   = []string{"internal/run", "examples", "bench"}
	oneAssembly  = "internal/run is the one assembly site; examples and bench wire their own stacks to show or time the layers (DESIGN.md §12)"
	confinements = []confinement{
		{"internal/simnet", "New", assemblers, oneAssembly},
		{"internal/workload", "NewRunner", assemblers, oneAssembly},
		{"internal/check", "NewMonitor", assemblers, oneAssembly},
		{"internal/recovery", "Build", assemblers, oneAssembly},
		{"internal/recovery", "StaggeredTimeouts", []string{"internal/run", "bench"}, "internal/run derives detector timeouts from Grid.MaxRTT (DESIGN.md §12)"},
		{"internal/simnet", "Options.KindCounts", []string{"internal/run", "bench"}, "internal/run switches per-kind counters on for recovery runs (DESIGN.md §12)"},
		{"os", "Getenv", nil, "no run or test depends on an environment variable (DESIGN.md §12)"},
		{"os", "LookupEnv", nil, "no run or test depends on an environment variable (DESIGN.md §12)"},
		{"runtime", "GOMAXPROCS", []string{"internal/fleet", "bench"}, "internal/fleet decides what a worker count means: <= 0 GOMAXPROCS, 1 inline (DESIGN.md §8)"},
		{"container/heap", "", nil, "des's radix heap is the one event queue (DESIGN.md §10)"},
		{"internal/workload", "Runner.Records", []string{"examples", "bench"}, "every run of the kernel streams its grants into a sink and keeps no record list (DESIGN.md §12)"},
		{"internal/harness", "runShards", []string{"internal/harness.sweep"}, "sweep is the harness's one sweep driver (DESIGN.md §8)"},
		{"internal/harness", "Scale.Workers", []string{"internal/harness", "bench"}, "commands and facades leave the worker count to GOMAXPROCS; only tests and the benchmark set it (DESIGN.md §8)"},
		{"internal/stats", "Accumulator.Sketch", []string{"bench"}, "harness cells keep moments only: no committed table prints a cell's percentile (DESIGN.md §10)"},
		{"internal/adaptive", "", []string{"internal/run"}, "the adaptive protocol is simulator-only: no live stack builds it, so the wire has no codec for it (DESIGN.md §3)"},
	}
)

func runConfine(p *Pass) {
	pkgs := make(map[string]*types.Package)
	for _, pkg := range p.Prog.Packages {
		for _, t := range append([]*types.Package{pkg.Types}, pkg.Types.Imports()...) {
			pkgs[stripModulePrefix(t.Path())] = t
		}
	}
	rows := make(map[any]*confinement, len(confinements))
	for i, c := range confinements {
		name, member, _ := strings.Cut(c.name, ".")
		if t := pkgs[c.pkg]; c.name == "" {
			rows[c.pkg] = &confinements[i]
		} else if t != nil {
			obj := t.Scope().Lookup(name)
			if obj != nil && member != "" {
				obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, t, member)
			}
			if obj == nil {
				p.Reportf(token.NoPos, "confinement row %s.%s names nothing in %s", c.pkg, c.name, t.Path())
				continue
			}
			rows[obj] = &confinements[i]
		}
	}
	for _, pkg := range p.Prog.Packages {
		rel := stripModulePrefix(pkg.Path)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn := ""
				if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil {
					fn = rel + "." + d.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					var key any
					switch n := n.(type) {
					case *ast.ImportSpec:
						path, _ := strconv.Unquote(n.Path.Value)
						key = stripModulePrefix(path)
					case *ast.Ident:
						key = pkg.Info.Uses[n]
					}
					if c := rows[key]; c != nil && !c.allows(rel, fn) {
						p.Reportf(n.Pos(), "%s used outside [%s]: %s", strings.TrimSuffix(c.pkg+"."+c.name, "."), strings.Join(c.allow, " "), c.why)
					}
					return true
				})
			}
		}
	}
}

// allows reports whether package rel, in top-level function fn, may use the row's symbol.
func (c *confinement) allows(rel, fn string) bool {
	for _, a := range c.allow {
		if PathUnder(rel, a) || a == fn {
			return true
		}
	}
	return rel == c.pkg && !strings.Contains(strings.Join(c.allow, " "), c.pkg+".")
}
