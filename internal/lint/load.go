package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path the package was loaded under.
	Path string
	// Dir is the directory its sources live in.
	Dir  string
	Fset *token.FileSet
	// Files are the parsed non-test sources, in filename order.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking problems; LoadProgram refuses a
	// program whose listed packages have any, because a finding on
	// broken code may be wrong.
	TypeErrors []error
}

// Loader loads and type-checks packages without the go toolchain or
// network: module-internal imports resolve against the module source
// tree, everything else against GOROOT source via go/importer.
//
// A single Loader caches type-checked packages, so loading many packages
// of one module pays the standard-library checking cost once.
type Loader struct {
	// ModuleRoot is the directory containing go.mod; ModulePath the
	// module path declared there.
	ModuleRoot string
	ModulePath string
	// ExtraRoot, when non-empty, resolves import paths that are neither
	// module-internal nor resolvable as stdlib — the corpus layout of
	// linttest (testdata/src/<path>).
	ExtraRoot string

	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
}

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*Package),
	}, nil
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
	}
}

// Program is a set of packages loaded and type-checked together under one
// Loader, the unit every analyzer runs on. The call-graph analyzers see
// exactly the packages in the Program: pointing the driver at a subset of
// the module narrows their view.
type Program struct {
	// Fset is the FileSet shared by every package in the program.
	Fset *token.FileSet
	// Packages, sorted by import path.
	Packages []*Package

	graph *CallGraph
}

// LoadProgram loads every listed import path into one Program. A package
// that fails to load or to type-check aborts the whole program: a
// whole-program analysis over a partial program would silently
// under-report.
func (l *Loader) LoadProgram(paths []string) (*Program, error) {
	prog := &Program{Fset: l.fset}
	seen := make(map[string]bool, len(paths))
	var typeErrs []error
	for _, path := range paths {
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg, err := l.load(path, make(map[string]bool))
		if err != nil {
			return nil, fmt.Errorf("lint: load program: %w", err)
		}
		for _, e := range pkg.TypeErrors {
			typeErrs = append(typeErrs, fmt.Errorf("%s: %w", path, e))
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	if len(typeErrs) > 0 {
		return nil, errors.Join(typeErrs...)
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].Path < prog.Packages[j].Path
	})
	return prog, nil
}

// CallGraph returns the program's call graph, built on first use and
// shared by every analyzer that needs one.
func (p *Program) CallGraph() *CallGraph {
	if p.graph == nil {
		p.graph = buildCallGraph(p)
	}
	return p.graph
}

// ModulePackages returns the import paths of every package under the
// module root, skipping testdata, hidden and vendor directories.
func (l *Loader) ModulePackages() ([]string, error) {
	var out []string
	err := filepath.Walk(l.ModuleRoot, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return nil
		}
		name := info.Name()
		if p != l.ModuleRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !hasGoFiles(p) {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModulePath)
		} else {
			out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// dirFor maps an import path to a source directory, or "" when the path
// should be resolved as standard library.
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	if strings.HasPrefix(path, l.ModulePath+"/") {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
	}
	if l.ExtraRoot != "" {
		d := filepath.Join(l.ExtraRoot, filepath.FromSlash(path))
		if hasGoFiles(d) {
			return d
		}
	}
	return ""
}

func (l *Loader) load(path string, loading map[string]bool) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: %s is not a module or corpus package", path)
	}
	if loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	loading[path] = true
	defer delete(loading, path)

	ctx := build.Default
	bp, err := ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}

	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	conf := types.Config{
		Importer: &chainImporter{l: l, loading: loading},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(path, l.fset, files, pkg.Info)
	l.cache[path] = pkg
	return pkg, nil
}

// chainImporter resolves module/corpus imports through the loader and
// everything else through the GOROOT source importer.
type chainImporter struct {
	l       *Loader
	loading map[string]bool
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if c.l.dirFor(path) != "" {
		p, err := c.l.load(path, c.loading)
		if err != nil {
			return nil, err
		}
		if p.Types == nil {
			return nil, fmt.Errorf("lint: no type information for %s", path)
		}
		return p.Types, nil
	}
	return c.l.std.Import(path)
}
