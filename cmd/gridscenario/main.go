// Command gridscenario runs declarative conformance scenarios
// (internal/scenario): each *.yaml file declares a topology, workload,
// fault schedule, system under test and expectation block; the engine
// runs it deterministically and judges the verdict.
//
// Usage:
//
//	gridscenario testdata/scenarios            # sweep a corpus directory
//	gridscenario testdata/scenarios/foo.yaml   # run one file
//	gridscenario -json testdata/scenarios      # machine-readable verdicts
//	gridscenario -workers 1 -v path...         # serial, verbose
//
// Directories are swept non-recursively over their *.yaml files in name
// order; results print in input order regardless of -workers, so output
// is byte-identical for every worker count.
//
// Exit status: 0 all verdicts pass, 1 any verdict fails, 2 load or usage
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gridmutex/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("gridscenario", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit verdicts as a JSON array")
	workers := fs.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS, 1 = serial on the calling goroutine)")
	verbose := fs.Bool("v", false, "print every check, not only failures")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gridscenario [-json] [-workers N] [-v] <file-or-dir>...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	var scenarios []*scenario.Scenario
	for _, path := range fs.Args() {
		info, err := os.Stat(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridscenario: %v\n", err)
			return 2
		}
		if info.IsDir() {
			scs, err := scenario.LoadDir(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridscenario: %v\n", err)
				return 2
			}
			scenarios = append(scenarios, scs...)
		} else {
			sc, err := scenario.LoadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridscenario: %v\n", err)
				return 2
			}
			scenarios = append(scenarios, sc)
		}
	}

	results, err := scenario.RunAll(scenarios, *workers, scenario.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridscenario: %v\n", err)
		return 2
	}

	failed := 0
	for _, r := range results {
		if !r.Verdict.Pass {
			failed++
		}
	}
	if *jsonOut {
		verdicts := make([]*scenario.Verdict, len(results))
		for i := range results {
			verdicts[i] = &results[i].Verdict
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(verdicts); err != nil {
			fmt.Fprintf(os.Stderr, "gridscenario: %v\n", err)
			return 2
		}
	} else {
		for _, r := range results {
			fmt.Fprint(stdout, r.Verdict.String())
			if *verbose {
				for _, c := range r.Verdict.Checks {
					if c.Pass {
						fmt.Fprintf(stdout, "  pass %s\n", c.Name)
					}
				}
				for _, m := range r.Verdict.Metrics {
					fmt.Fprintf(stdout, "       %-24s %g\n", m.Name, m.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "%d scenarios, %d failed\n", len(results), failed)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
