// Command bench is the repository's one benchmark. A run measures one
// workload and prints, as the last line of standard output, one JSON object
// with the keys correct, attempted, failed and metrics:
//
//	go run ./bench -workload fig4a-paper -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
// -trace 1 the per-layer ones: isolation drives of every package plus a
// traced pass of the workload. Without -workload it runs every workload in
// child processes and prints every metric; -selfcheck runs two such sets on
// ten seeds each and compares them. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
)

// metricDef is one row of BENCHMARK.json; bench_test.go holds the file and
// these tables to each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
}

// endToEnd lists the metrics a -trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"cs_per_sec", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"bytes_per_proc", "B/proc", "lower", 0.05},
}

type workloadDef struct {
	name string
	why  string
	// run measures the workload end to end for about opts.seconds.
	run func(o opts) (*outcome, error)
	// trace runs the workload's traced pass and fills the trace.*,
	// runtime.* and events_per_sec metrics.
	trace func(o opts, m metrics) (*outcome, *traceFile, error)
}

var workloads = []workloadDef{
	{"fig4a-paper", "the paper's headline figure: 4 systems x 10 rho on the 9x20 Grid'5000 grid, many short runs, shallow event queue, dense routing", runFig4a, traceFig4a},
	{"gridscale-1e5", "one 5-level naimi tree of 101,110 processes: deep event heap, matrix-free routing, arena build, a 140 MB heap under GC", runGridScale, traceGridScale},
	{"recovery-6x8", "crash recovery on 6x8: ~99% detector heartbeats, closure timers, per-kind counter map, epoch wrapper on every message", runRecovery, traceRecovery},
	{"live-udp-handoff", "strict cross-cluster hand-off from one client over loopback UDP: the only path through wire, sockets and livenet mailboxes", runLive, traceLive},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opts are the inputs of one run.
type opts struct {
	seed    int64
	seconds float64
	smoke   bool
	update  bool
	outDir  string
	log     io.Writer
}

func (o opts) logf(format string, args ...any) { fmt.Fprintf(o.log, format+"\n", args...) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a value under a name the metric tables declare; a name they do
// not declare is a bug in the benchmark.
func (m metrics) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is what a workload's measured pass yields before it is folded into
// a result.
type outcome struct {
	attempted, failed int64
	// problems lists every correctness failure: a run error, a grant count
	// off its expectation, a golden mismatch, a mutual-exclusion violation.
	problems []string
	walls    []float64 // seconds per measured unit
	rates    []float64 // critical sections per second, per unit
	setups   []float64 // seconds per set-up
	bytes    []float64 // bytes per process, per set-up
}

func (out *outcome) problemf(format string, args ...any) {
	out.problems = append(out.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (one of the names in BENCHMARK.json); empty runs every workload in child processes")
	seed := fs.Int64("seed", 1, "the only workload input: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the measured pass runs")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics (isolation drives and a traced pass)")
	smoke := fs.Bool("smoke", false, "shrink every workload to test size (no goldens)")
	selfcheck := fs.Bool("selfcheck", false, "run two sets on ten seeds each, print both medians, their difference and the spread per metric, fail on any beyond its bound")
	update := fs.Bool("update", false, "rewrite bench/testdata goldens from this run (seed 1, full size)")
	outDir := fs.String("out", "bench/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	if *update && *name == "" {
		fmt.Fprintln(stderr, "bench: -update rewrites one golden and needs -workload")
		return 2
	}
	o := opts{seed: *seed, seconds: *seconds, smoke: *smoke, update: *update, outDir: *outDir, log: stdout}

	if *name == "" {
		const trials, selfcheckTrials = 3, 10 // seeds per workload; ten is what the benchmark's driver takes
		n := trials
		if *selfcheck {
			n = selfcheckTrials
		}
		if err := runSets(o, n, *selfcheck); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	// gridbench's setting: simulation heaps are small and short-lived.
	debug.SetGCPercent(400)
	o.logf("bench %s seed=%d seconds=%g trace=%d smoke=%v %s gomaxprocs=%d numcpu=%d",
		w.name, o.seed, o.seconds, *trace, o.smoke, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, o)
	} else {
		res, err = runEndToEnd(w, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runEndToEnd folds a workload's measured pass into the end-to-end metrics.
func runEndToEnd(w *workloadDef, o opts) (*result, error) {
	out, err := w.run(o)
	if err != nil {
		return nil, err
	}
	m := metrics{}
	m.set(endToEnd, "wall_s", median(out.walls))
	m.set(endToEnd, "setup_s", median(out.setups))
	m.set(endToEnd, "cs_per_sec", median(out.rates))
	m.set(endToEnd, "peak_rss_mb", peakRSSMB())
	// Whatever else is alive when a deployment is sized only adds to it.
	m.set(endToEnd, "bytes_per_proc", least(out.bytes))
	o.logf("units=%d wall_s min/median/max %.4f/%.4f/%.4f  set-ups=%d",
		len(out.walls), slices.Min(out.walls), median(out.walls), slices.Max(out.walls), len(out.setups))
	return finish(out, m, o), nil
}

// finish reports the problems and builds the result; a value that is not a
// finite number is itself a correctness failure.
func finish(out *outcome, m metrics, o opts) *result {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out.problemf("metric %s is %v", name, v.Value)
			v.Value = 0
			m[name] = v
		}
		o.logf("  %-36s %16.6g %s", name, v.Value, v.Unit)
	}
	for _, p := range out.problems {
		o.logf("FAILED: %s", p)
	}
	if len(out.problems) > 0 && out.failed == 0 {
		out.failed = 1
	}
	if out.attempted < 1 {
		out.attempted = 1
	}
	return &result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: m}
}

func least(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
