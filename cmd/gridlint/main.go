// Command gridlint runs the repo's determinism and concurrency analyzers
// (internal/lint) over module packages and exits non-zero on findings.
//
// Usage:
//
//	gridlint                    # the whole module, like ./...
//	gridlint ./internal/des     # specific packages
//	gridlint -exemptions ./...  # also list every //lint:allow pragma with usage
//	gridlint -list              # describe the analyzer suite
//
// All named packages are loaded and type-checked together as one
// program, so narrowing the package list narrows what the call-graph
// analyzers (determinism taint, allocation hygiene) can see.
//
// Findings print in go vet style (file:line:col: analyzer: message),
// with the entry-point call chain appended where there is one, and are
// suppressed only by an in-source //lint:allow comment; see the package
// documentation of internal/lint for the convention. Every run also
// audits those comments: a pragma that is stale, names no analyzer of
// the suite or records no reason is a finding.
//
// Exit status: 0 clean, 1 findings, 2 load or usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gridmutex/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("gridlint", flag.ExitOnError)
	list := fs.Bool("list", false, "list the analyzer suite and exit")
	exemptions := fs.Bool("exemptions", false, "list every //lint:allow pragma with usage")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gridlint [-list] [-exemptions] [packages]")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%s\n\t%s\n", a.Name, a.Doc)
		}
		return 0
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridlint:", err)
		return 2
	}
	paths, err := resolve(loader, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridlint:", err)
		return 2
	}

	prog, err := loader.LoadProgram(paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridlint:", err)
		return 2
	}

	status := 0
	result := lint.Run(prog, lint.All())
	for _, d := range result.Diagnostics {
		d.Pos.Filename = relPath(d.Pos.Filename)
		fmt.Fprintln(stdout, d)
		status = 1
	}
	if *exemptions {
		for _, e := range result.Exemptions {
			state := "used"
			if !e.Used {
				state = "STALE"
			}
			reason := e.Reason
			if reason == "" {
				reason = "(no reason recorded)"
			}
			pos := e.Pos
			pos.Filename = relPath(pos.Filename)
			fmt.Fprintf(stdout, "%s: allow %s [%s]: %s\n", pos, strings.Join(e.Analyzers, ","), state, reason)
		}
	}
	return status
}

// resolve expands command-line package patterns into import paths. With
// no arguments it analyzes the whole module, like "./...".
func resolve(l *lint.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	all, err := l.ModulePackages()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			for _, p := range all {
				add(p)
			}
		case strings.HasSuffix(arg, "/..."):
			prefix, err := importPath(l, strings.TrimSuffix(arg, "/..."))
			if err != nil {
				return nil, err
			}
			matched := false
			for _, p := range all {
				if lint.PathUnder(p, prefix) {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("no packages under %s", arg)
			}
		default:
			p, err := importPath(l, arg)
			if err != nil {
				return nil, err
			}
			add(p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// importPath maps a directory argument (./internal/des) or bare import
// path (gridmutex/internal/des) to a module import path.
func importPath(l *lint.Loader, arg string) (string, error) {
	if lint.PathUnder(arg, l.ModulePath) {
		return arg, nil
	}
	abs, err := filepath.Abs(arg)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("%s is outside module %s", arg, l.ModulePath)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// relPath shortens absolute diagnostic filenames relative to the current
// directory when that produces a shorter, in-tree path.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}
