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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/harness"
	"gridmutex/internal/run"
	"gridmutex/internal/topology"
	"gridmutex/internal/trace"
	"gridmutex/internal/workload"
)

func main() {
	var (
		intra    = flag.String("intra", "naimi", "intra-cluster algorithm")
		inter    = flag.String("inter", "naimi", "inter-cluster algorithm")
		flat     = flag.String("flat", "", "run a flat original algorithm instead of a composition")
		adaptive = flag.Bool("adaptive", false, "wrap the inter level in the adaptive switching protocol")
		grid5000 = flag.Bool("grid5000", false, "use the paper's measured Grid5000 latency matrix (9 clusters)")
		clusters = flag.Int("clusters", 9, "number of clusters")
		apps     = flag.Int("apps", 20, "application processes per cluster")
		localMS  = flag.Float64("local-rtt", 0.1, "intra-cluster RTT in ms (synthetic topologies)")
		remoteMS = flag.Float64("remote-rtt", 20, "inter-cluster RTT in ms (synthetic topologies)")
		rho      = flag.Float64("rho", 180, "degree of parallelism (beta/alpha)")
		alphaMS  = flag.Float64("alpha", 10, "critical section duration in ms")
		cs       = flag.Int("cs", 100, "critical sections per process")
		reps     = flag.Int("reps", 1, "repetitions to average")
		seed     = flag.Int64("seed", 1, "base random seed")
		jitter   = flag.Float64("jitter", 0.05, "fractional latency jitter")
		matrix   = flag.String("matrix", "", "file with a measured cluster RTT matrix (Figure 3 text format); overrides -grid5000/-clusters")
		loss     = flag.Float64("loss", 0, "probability of dropping each message (requires -reliable to stay live)")
		reliab   = flag.Bool("reliable", false, "add the sequencing/ack/retransmission layer")
		asJSON   = flag.Bool("json", false, "emit the point as JSON")
		traceN   = flag.Int("trace", 0, "run one extra small traced simulation and dump its last N protocol events")
	)
	flag.Parse()

	var customMatrix *topology.Matrix
	if *matrix != "" {
		f, err := os.Open(*matrix)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridsim:", err)
			os.Exit(1)
		}
		customMatrix, err = topology.ParseMatrixSpec(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridsim:", err)
			os.Exit(1)
		}
	}

	scale := harness.Scale{
		CustomMatrix:   customMatrix,
		Clusters:       *clusters,
		AppsPerCluster: *apps,
		UseGrid5000:    *grid5000,
		LocalRTT:       time.Duration(*localMS * float64(time.Millisecond)),
		RemoteRTT:      time.Duration(*remoteMS * float64(time.Millisecond)),
		CSPerProcess:   *cs,
		Repetitions:    *reps,
		Rhos:           []float64{*rho},
		Alpha:          time.Duration(*alphaMS * float64(time.Millisecond)),
		BaseSeed:       *seed,
		Jitter:         *jitter,
		Loss:           *loss,
		Reliable:       *reliab,
	}

	var sys harness.System
	switch {
	case *flat != "":
		sys = harness.Flat(*flat)
	case *adaptive:
		sys = harness.Adaptive(*intra, *inter)
	default:
		sys = harness.Composed(*intra, *inter)
	}

	res, err := harness.Run([]harness.System{sys}, scale, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridsim:", err)
		os.Exit(1)
	}
	p := res.Points[0]

	if *traceN > 0 {
		if err := dumpTrace(*intra, *inter, *rho, *seed, *traceN); err != nil {
			fmt.Fprintln(os.Stderr, "gridsim:", err)
			os.Exit(1)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(p); err != nil {
			fmt.Fprintln(os.Stderr, "gridsim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("system:                 %s\n", p.System)
	fmt.Printf("N (apps):               %d\n", scale.N())
	fmt.Printf("rho:                    %g  (N=%d: low<=N, intermediate<=3N, high>=3N)\n", p.Rho, scale.N())
	fmt.Printf("grants:                 %d\n", p.Grants)
	fmt.Printf("obtaining mean:         %.3f ms\n", p.Obtaining.Mean)
	fmt.Printf("obtaining std dev:      %.3f ms\n", p.Obtaining.Std)
	fmt.Printf("obtaining rel std dev:  %.3f\n", p.Obtaining.RelStd)
	fmt.Printf("obtaining p50/p95/p99:  %.3f / %.3f / %.3f ms\n", p.Obtaining.P50, p.Obtaining.P95, p.Obtaining.P99)
	fmt.Printf("inter-cluster msgs/CS:  %.3f\n", p.InterMsgsPerCS)
	fmt.Printf("intra-cluster msgs/CS:  %.3f\n", p.IntraMsgsPerCS)
	fmt.Printf("total msgs/CS:          %.3f\n", p.TotalMsgsPerCS)
	fmt.Printf("inter-cluster bytes/CS: %.1f\n", p.InterBytesPerCS)
	if sys.AdaptiveInter {
		fmt.Printf("adaptive switches:      %d\n", p.Switches)
	}
}

// dumpTrace runs a small traced deployment and prints its last n protocol
// events — a quick way to watch the composition work.
func dumpTrace(intra, inter string, rho float64, seed int64, n int) error {
	r, err := run.Build(run.Spec{
		Grid: topology.Uniform(2, 3, time.Millisecond, 15*time.Millisecond),
		Seed: seed, TraceCapacity: n,
		Workload: workload.Params{
			Alpha: 5 * time.Millisecond, Rho: rho / 10, Dist: workload.Exponential,
			CSPerProcess: 3,
		},
		System:     run.System{Intra: intra, Inter: inter},
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
	if out.Stall != nil && out.Stall.Err != nil {
		return out.Stall.Err
	}
	fmt.Fprintf(os.Stderr, "--- trace of a 2x2 %s-%s run (last %d events) ---\n", intra, inter, n)
	fmt.Fprint(os.Stderr, out.Trace)
	fmt.Fprintln(os.Stderr, "---")
	return nil
}
