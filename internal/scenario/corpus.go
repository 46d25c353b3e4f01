package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gridmutex/internal/fleet"
)

// LoadFile loads one scenario file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return sc, nil
}

// LoadDir loads every *.yaml file directly under dir (not recursing —
// testdata/scenarios/broken/ holds intentionally failing fixtures that a
// sweep of the green corpus must not pick up), sorted by file name, and
// rejects duplicate scenario names across the corpus.
func LoadDir(dir string) ([]*Scenario, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".yaml") {
			continue
		}
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.yaml scenarios in %s", dir)
	}
	seen := make(map[string]string, len(paths))
	var out []*Scenario
	for _, p := range paths {
		sc, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[sc.Name]; dup {
			return nil, fmt.Errorf("%s: scenario name %q already used by %s", p, sc.Name, prev)
		}
		seen[sc.Name] = p
		out = append(out, sc)
	}
	return out, nil
}

// RunAll executes the scenarios on up to workers goroutines (fleet's
// convention: <= 0 means GOMAXPROCS, 1 runs them inline on the caller) —
// each run on its own private Simulator — and returns results in input
// order, never completion order, so a parallel sweep renders the same
// bytes as a serial one.
func RunAll(scs []*Scenario, workers int, opts Options) ([]*Result, error) {
	return fleet.Map(len(scs), workers, func(i int) (*Result, error) {
		return Run(scs[i], opts)
	})
}
