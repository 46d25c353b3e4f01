// Command gridbench regenerates the paper's evaluation figures: every
// table and figure of the evaluation section, and each extension beyond
// it, maps to an experiment. `gridbench -list` names and describes them.
//
// Usage:
//
//	gridbench -experiment all -scale paper
//	gridbench -experiment fig4a -scale quick
//	gridbench -experiment fig4a -scale quick -parallel 8
//	gridbench -experiment fig4a -scale quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// With -parallel N the harness fans repetitions out over N goroutines (the
// default 0 = GOMAXPROCS, 1 = serial); results and progress lines are
// byte-identical for every N, and progress streams cell by cell either way.
// Timings and memory are measured by the benchmark, `go run ./bench`, not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"

	"gridmutex"
)

func main() {
	experiment := flag.String("experiment", "all", "figure to regenerate, or 'all' (one of: all "+strings.Join(gridmutex.Figures(), " ")+")")
	scaleName := flag.String("scale", "paper", "experiment scale: 'paper' (9 Grid5000 clusters, N=180, 100 CS, 10 reps) or 'quick'")
	parallel := flag.Int("parallel", 0, "worker goroutines for repetitions (0 = GOMAXPROCS, 1 = serial); results are identical for every value")
	quiet := flag.Bool("q", false, "suppress per-cell progress output")
	list := flag.Bool("list", false, "list available experiments and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment pass to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment pass to this path")
	flag.Parse()

	// Simulation heaps are small and short-lived, so a GC target above
	// the default 100 trades a few MB of headroom for far fewer
	// collection cycles.
	debug.SetGCPercent(400)

	if *list {
		for _, f := range gridmutex.Figures() {
			d, _ := gridmutex.DescribeFigure(f)
			fmt.Printf("%-10s %s\n", f, d)
		}
		return
	}

	var scale gridmutex.ExperimentScale
	switch *scaleName {
	case "paper":
		scale = gridmutex.ScalePaper
	case "quick":
		scale = gridmutex.ScaleQuick
	default:
		fmt.Fprintf(os.Stderr, "gridbench: unknown scale %q (want paper or quick)\n", *scaleName)
		os.Exit(2)
	}

	progress := func(line string) { fmt.Fprintln(os.Stderr, line) }
	if *quiet {
		progress = nil
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gridbench:", err)
			os.Exit(1)
		}
	}

	opt := gridmutex.RunOptions{Workers: *parallel}
	var figs map[string]string
	var err error
	if *experiment == "all" {
		figs, err = gridmutex.ReproduceAllWith(scale, opt, progress)
	} else {
		var tab string
		tab, err = gridmutex.ReproduceFigureWith(*experiment, scale, opt, progress)
		figs = map[string]string{*experiment: tab}
	}

	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, merr := os.Create(*memProfile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "gridbench:", merr)
			os.Exit(1)
		}
		runtime.GC() // settle live-heap accounting before the snapshot
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintln(os.Stderr, "gridbench:", merr)
			os.Exit(1)
		}
		f.Close()
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(1)
	}

	if *experiment == "all" {
		for _, f := range gridmutex.Figures() {
			fmt.Println(figs[f])
		}
		return
	}
	fmt.Println(figs[*experiment])
}
