// Command gridsim runs one simulated deployment and prints its metrics:
// a scriptable single cell of the paper's experiment grid.
//
// Examples:
//
//	gridsim -intra naimi -inter martin -rho 180
//	gridsim -flat suzuki -clusters 5 -apps 10 -rho 50 -reps 3
//	gridsim -intra naimi -inter suzuki -grid5000 -rho 540 -json
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/harness"
	"gridmutex/internal/run"
	"gridmutex/internal/topology"
	"gridmutex/internal/trace"
	"gridmutex/internal/workload"
)

func main() { os.Exit(gridsim(os.Args[1:], os.Stdout, os.Stderr)) }

func gridsim(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridsim", flag.ExitOnError)
	var (
		intra    = fs.String("intra", "naimi", "intra-cluster algorithm")
		inter    = fs.String("inter", "naimi", "inter-cluster algorithm")
		flat     = fs.String("flat", "", "run a flat original algorithm instead of a composition")
		adaptive = fs.Bool("adaptive", false, "wrap the inter level in the adaptive switching protocol")
		grid5000 = fs.Bool("grid5000", false, "use the paper's measured Grid5000 latency matrix (9 clusters)")
		clusters = fs.Int("clusters", 9, "number of clusters")
		apps     = fs.Int("apps", 20, "application processes per cluster")
		localMS  = fs.Float64("local-rtt", 0.1, "intra-cluster RTT in ms (synthetic topologies)")
		remoteMS = fs.Float64("remote-rtt", 20, "inter-cluster RTT in ms (synthetic topologies)")
		rho      = fs.Float64("rho", 180, "degree of parallelism (beta/alpha)")
		alphaMS  = fs.Float64("alpha", 10, "critical section duration in ms")
		cs       = fs.Int("cs", 100, "critical sections per process")
		reps     = fs.Int("reps", 1, "repetitions to average")
		seed     = fs.Int64("seed", 1, "base random seed")
		jitter   = fs.Float64("jitter", 0.05, "fractional latency jitter")
		matrix   = fs.String("matrix", "", "file with a measured cluster RTT matrix (Figure 3 text format); overrides -grid5000/-clusters")
		loss     = fs.Float64("loss", 0, "probability of dropping each message (requires -reliable to stay live)")
		reliab   = fs.Bool("reliable", false, "add the sequencing/ack/retransmission layer")
		asJSON   = fs.Bool("json", false, "emit the point as JSON")
		traceN   = fs.Int("trace", 0, "run one extra small traced simulation and dump its last N protocol events")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	localRTT, err1 := millis("local-rtt", *localMS)
	remoteRTT, err2 := millis("remote-rtt", *remoteMS)
	alpha, err3 := millis("alpha", *alphaMS)
	if err := cmp.Or(err1, err2, err3); err != nil {
		fmt.Fprintln(stderr, "gridsim:", err)
		return 1
	}
	if *traceN < 0 {
		fmt.Fprintf(stderr, "gridsim: -trace %d: want 0 or more events\n", *traceN)
		return 1
	}

	var customMatrix *topology.Matrix
	if *matrix != "" {
		f, err := os.Open(*matrix)
		if err != nil {
			fmt.Fprintln(stderr, "gridsim:", err)
			return 1
		}
		customMatrix, err = topology.ParseMatrixSpec(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "gridsim:", err)
			return 1
		}
	}

	scale := harness.Scale{
		CustomMatrix:   customMatrix,
		Clusters:       *clusters,
		AppsPerCluster: *apps,
		UseGrid5000:    *grid5000,
		LocalRTT:       localRTT,
		RemoteRTT:      remoteRTT,
		CSPerProcess:   *cs,
		Repetitions:    *reps,
		Alpha:          alpha,
		BaseSeed:       *seed,
		Jitter:         *jitter,
		Loss:           *loss,
		Reliable:       *reliab,
	}

	// -intra and -inter have defaults, so -flat replaces them; any other
	// contradiction (-flat -adaptive) is the run kernel's to reject.
	sys := harness.Composed(*intra, *inter)
	switch {
	case *flat != "":
		sys = harness.Flat(*flat)
	case *adaptive:
		sys = harness.Adaptive(*intra, *inter)
	}
	sys.AdaptiveInter = *adaptive

	// One cell's grants fit in memory, so its percentiles are exact.
	p, err := harness.RunCell(sys, scale, *rho)
	if err != nil {
		fmt.Fprintln(stderr, "gridsim:", err)
		return 1
	}

	if *traceN > 0 {
		if err := dumpTrace(stderr, sys, *rho, *seed, *traceN); err != nil {
			fmt.Fprintln(stderr, "gridsim:", err)
			return 1
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(p); err != nil {
			fmt.Fprintln(stderr, "gridsim:", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "system:                 %s\n", p.System)
	fmt.Fprintf(stdout, "N (apps):               %d\n", scale.N())
	fmt.Fprintf(stdout, "rho:                    %g  (N=%d: low<=N, intermediate<=3N, high>=3N)\n", p.Rho, scale.N())
	fmt.Fprintf(stdout, "grants:                 %d\n", p.Grants)
	fmt.Fprintf(stdout, "obtaining mean:         %.3f ms\n", p.Obtaining.Mean)
	fmt.Fprintf(stdout, "obtaining std dev:      %.3f ms\n", p.Obtaining.Std)
	fmt.Fprintf(stdout, "obtaining rel std dev:  %.3f\n", p.Obtaining.RelStd)
	fmt.Fprintf(stdout, "obtaining p50/p95/p99:  %.3f / %.3f / %.3f ms\n", p.Obtaining.P50, p.Obtaining.P95, p.Obtaining.P99)
	fmt.Fprintf(stdout, "inter-cluster msgs/CS:  %.3f\n", p.InterMsgsPerCS)
	fmt.Fprintf(stdout, "intra-cluster msgs/CS:  %.3f\n", p.IntraMsgsPerCS)
	fmt.Fprintf(stdout, "total msgs/CS:          %.3f\n", p.TotalMsgsPerCS)
	if sys.AdaptiveInter {
		fmt.Fprintf(stdout, "adaptive switches:      %d\n", p.Switches)
	}
	return 0
}

// millis converts flag name's value ms, in milliseconds, to a Duration. A
// value that is not finite, or whose nanoseconds overflow int64, is an
// error: converted unchecked it would become an arbitrary Duration. The
// sign is left to the run kernel to judge.
func millis(name string, ms float64) (time.Duration, error) {
	ns := ms * float64(time.Millisecond)
	if !(math.Abs(ns) < math.MaxInt64) {
		return 0, fmt.Errorf("-%s %g: not a duration (want finite milliseconds below 2^63 ns)", name, ms)
	}
	return time.Duration(ns), nil
}

// dumpTrace runs sys on a small traced deployment (2 clusters of 2
// application processes) and prints its last n protocol events — a quick
// way to watch the selected system work.
func dumpTrace(w io.Writer, sys harness.System, rho float64, seed int64, n int) error {
	rs := sys.RunSystem()
	r, err := run.Build(run.Spec{
		Grid: topology.Uniform(2, 2+rs.Reserved(), time.Millisecond, 15*time.Millisecond),
		Seed: seed, TraceCapacity: n,
		Workload: workload.Params{
			Alpha: 5 * time.Millisecond, Rho: rho / 10, Dist: workload.Exponential,
			CSPerProcess: 3,
		},
		System:     rs,
		EventLimit: 1_000_000,
	})
	if err != nil {
		return err
	}
	for _, c := range r.Core.Coordinators {
		c := c
		c.SetObserver(func(from, to core.CoordinatorState) {
			r.Tracer.Record(trace.CoordState, c.ID(), -1, from.String()+"->"+to.String())
		})
	}
	out := r.Drive()
	if out.Stall != nil {
		return out.Stall
	}
	fmt.Fprintf(w, "--- trace of a 2x2 %s run (last %d events) ---\n", sys.Name, n)
	fmt.Fprint(w, out.Trace)
	fmt.Fprintln(w, "---")
	return nil
}
