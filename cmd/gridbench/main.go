// Command gridbench regenerates the paper's evaluation figures.
//
// Every table and figure of the evaluation section maps to an experiment:
//
//	fig3   Grid5000 RTT matrix (input data, encoded verbatim)
//	fig4a  obtaining time vs rho (original Naimi vs compositions)
//	fig4b  inter-cluster messages per CS vs rho
//	fig5a  obtaining time standard deviation vs rho
//	fig5b  obtaining time relative standard deviation vs rho
//	fig6a  intra algorithm choice: obtaining time
//	fig6b  intra algorithm choice: standard deviation
//	scale  section 4.7 scalability discussion
//	adaptive  section 6 future work: adaptive inter algorithm
//	recovery  robustness extension: token regeneration vs heartbeat period
//	partition robustness extension: minority degradation vs cut duration
//
// Usage:
//
//	gridbench -experiment all -scale paper
//	gridbench -experiment fig4a -scale quick
//	gridbench -experiment fig4a -scale quick -parallel 8 -json bench.json
//	gridbench -experiment fig4a -scale quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// With -parallel N the harness fans repetitions out over N goroutines;
// results are byte-identical to a serial run. With -json the command
// also runs the matching serial reference pass, verifies the parallel
// output matches, and writes a machine-readable benchmark record (wall
// times, events/sec, speedup) to the given path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"gridmutex"
)

// benchRecord is the machine-readable benchmark result -json emits.
type benchRecord struct {
	// Schema versions the record layout.
	Schema string `json:"schema"`
	// Experiment and Scale echo the command line.
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	// Workers is the resolved -parallel value (GOMAXPROCS substituted for
	// 0 or negative).
	Workers int `json:"workers"`
	// GoMaxProcs and NumCPU record the machine the record was produced
	// on: speedup and events/sec are only comparable across records when
	// the core budgets are (benchcmp scales its expectations by these).
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
	// Cells and Runs count experiment cells and seeded simulations.
	Cells int `json:"cells"`
	Runs  int `json:"runs"`
	// Events is the total DES events processed (one experiment pass).
	Events int64 `json:"events"`
	// WallMS is the wall-clock time of the parallel pass; EventsPerSec its
	// DES throughput.
	WallMS       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	// SerialWallMS and Speedup compare against the serial reference pass
	// (present only when workers > 1).
	SerialWallMS float64 `json:"serial_wall_ms,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	// Identical reports whether the parallel figures matched the serial
	// ones byte for byte (always true when the record is written by a
	// successful run; a mismatch aborts with exit 1).
	Identical bool `json:"identical"`
	// Memory holds the per-N machine measurements of the gridscale
	// experiment (absent for other figures). These are machine-dependent
	// by nature — benchcmp holds bytes_per_proc to a ceiling rather than
	// equality.
	Memory []gridmutex.MemSample `json:"memory,omitempty"`
	// Figures holds the rendered figure text keyed by figure name.
	Figures map[string]string `json:"figures"`
}

func main() {
	experiment := flag.String("experiment", "all", "figure to regenerate, or 'all' (one of: all "+strings.Join(gridmutex.Figures(), " ")+")")
	scaleName := flag.String("scale", "paper", "experiment scale: 'paper' (9 Grid5000 clusters, N=180, 100 CS, 10 reps) or 'quick'")
	parallel := flag.Int("parallel", 1, "worker goroutines for repetitions (0 = GOMAXPROCS); results are identical for every value")
	jsonPath := flag.String("json", "", "write a machine-readable benchmark record to this path (runs a serial reference pass for comparison when -parallel > 1)")
	quiet := flag.Bool("q", false, "suppress per-cell progress output")
	list := flag.Bool("list", false, "list available experiments and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment pass to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment pass to this path")
	gcPercent := flag.Int("gcpercent", 400, "runtime GC target percentage; simulation heaps are small and short-lived, so a target above the default 100 trades a few MB of headroom for far fewer collection cycles")
	flag.Parse()

	if *gcPercent > 0 {
		debug.SetGCPercent(*gcPercent)
	}

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

	run := func(workers int, prog func(string)) (map[string]string, gridmutex.RunInfo, time.Duration, error) {
		opt := gridmutex.RunOptions{Workers: workers}
		start := time.Now()
		var figs map[string]string
		var info gridmutex.RunInfo
		var err error
		if *experiment == "all" {
			figs, info, err = gridmutex.ReproduceAllWith(scale, opt, prog)
		} else {
			var tab string
			tab, info, err = gridmutex.ReproduceFigureWith(*experiment, scale, opt, prog)
			figs = map[string]string{*experiment: tab}
		}
		return figs, info, time.Since(start), err
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

	figs, info, wall, err := run(*parallel, progress)

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

	if *jsonPath != "" {
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		rec := benchRecord{
			Schema:     "gridbench/1",
			Experiment: *experiment,
			Scale:      *scaleName,
			Workers:    workers,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Cells:      info.Cells,
			Runs:       info.Runs,
			Events:     info.Events,
			WallMS:     float64(wall) / float64(time.Millisecond),
			Identical:  true,
			Memory:     info.Memory,
			Figures:    figs,
		}
		if wall > 0 {
			rec.EventsPerSec = float64(info.Events) / wall.Seconds()
		}
		if workers > 1 {
			// Serial reference pass: same experiment, one repetition
			// worker. The figures must match byte for byte — that is the
			// whole deterministic-merge contract.
			serialFigs, _, serialWall, err := run(1, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gridbench: serial reference pass:", err)
				os.Exit(1)
			}
			for name, tab := range figs {
				if serialFigs[name] != tab {
					fmt.Fprintf(os.Stderr, "gridbench: parallel output for %s differs from serial reference\n", name)
					os.Exit(1)
				}
			}
			rec.SerialWallMS = float64(serialWall) / float64(time.Millisecond)
			if wall > 0 {
				rec.Speedup = float64(serialWall) / float64(wall)
			}
		}
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridbench:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "gridbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gridbench: wrote %s (%d cells, %d runs, %d events, %.0f ms)\n",
			*jsonPath, rec.Cells, rec.Runs, rec.Events, rec.WallMS)
	}

	if *experiment == "all" {
		for _, f := range gridmutex.Figures() {
			fmt.Println(figs[f])
		}
		return
	}
	fmt.Println(figs[*experiment])
}
