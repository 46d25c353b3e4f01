package gridmutex

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"gridmutex/internal/harness"
	"gridmutex/internal/topology"
)

// metricLabel turns a system name into a whitespace-free benchmark metric
// label ("Naimi (original)" -> "Naimi-original").
func metricLabel(name, unit string) string {
	r := strings.NewReplacer(" (", "-", ")", "", " ", "-")
	return r.Replace(name) + "_" + unit
}

// benchScale is a reduced sweep — one ρ per parallelism regime, one
// repetition — so a full -bench=. pass stays fast while still exercising
// every figure's code path end to end. Regenerating the figures at the
// paper's dimensions is `gridbench -experiment all -scale paper`.
func benchScale() harness.Scale {
	s := harness.QuickScale()
	s.Repetitions = 1
	s.Rhos = []float64{6, 24, 48} // low / intermediate / high for N=12
	return s
}

// reportFigure runs the systems and reports the chosen metric of the
// highest-ρ point per system, labelled by system name.
func reportFigure(b *testing.B, systems []harness.System, metric harness.Metric, unit string) {
	b.Helper()
	scale := benchScale()
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Run(systems, scale, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	rho := scale.Rhos[len(scale.Rhos)-1]
	for _, sys := range systems {
		p := res.Point(sys.Name, rho)
		var v float64
		switch metric {
		case harness.ObtainingMean:
			v = p.Obtaining.Mean
		case harness.ObtainingStd:
			v = p.Obtaining.Std
		case harness.ObtainingRelStd:
			v = p.Obtaining.RelStd
		case harness.InterMsgs:
			v = p.InterMsgsPerCS
		}
		b.ReportMetric(v, metricLabel(sys.Name, unit))
	}
}

// BenchmarkParallelHarness measures the fig4a experiment grid at each
// fan-out width. On a single core the interesting number is the overhead
// of the pool (should be ~none); on a multi-core box the per-op time
// should drop with workers.
func BenchmarkParallelHarness(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			scale := benchScale()
			scale.Repetitions = 2
			scale.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := harness.Run(harness.CompositionSystems(), scale, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3LatencyMatrix regenerates the encoded Figure 3 table.
func BenchmarkFig3LatencyMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.Figure3Table() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig4aObtainingTime regenerates Figure 4(a): obtaining time of
// the original algorithm vs the three compositions.
func BenchmarkFig4aObtainingTime(b *testing.B) {
	reportFigure(b, harness.CompositionSystems(), harness.ObtainingMean, "ms")
}

// BenchmarkFig4bInterMessages regenerates Figure 4(b): inter-cluster
// messages per critical section.
func BenchmarkFig4bInterMessages(b *testing.B) {
	reportFigure(b, harness.CompositionSystems(), harness.InterMsgs, "msgs/CS")
}

// BenchmarkFig5aStdDev regenerates Figure 5(a): σ of the obtaining time.
func BenchmarkFig5aStdDev(b *testing.B) {
	reportFigure(b, harness.CompositionSystems(), harness.ObtainingStd, "ms")
}

// BenchmarkFig5bRelDev regenerates Figure 5(b): σ/mean.
func BenchmarkFig5bRelDev(b *testing.B) {
	reportFigure(b, harness.CompositionSystems(), harness.ObtainingRelStd, "ratio")
}

// BenchmarkFig6aIntraChoice regenerates Figure 6(a): the intra algorithm's
// (small) influence on the obtaining time.
func BenchmarkFig6aIntraChoice(b *testing.B) {
	reportFigure(b, harness.IntraSystems(), harness.ObtainingMean, "ms")
}

// BenchmarkFig6bIntraRegularity regenerates Figure 6(b): σ per intra
// algorithm (Suzuki's arrival-blind queue shows here).
func BenchmarkFig6bIntraRegularity(b *testing.B) {
	reportFigure(b, harness.IntraSystems(), harness.ObtainingStd, "ms")
}

// BenchmarkScalability regenerates the section 4.7 discussion: messages
// per CS as the grid grows, original vs self-composed algorithms.
func BenchmarkScalability(b *testing.B) {
	scale := benchScale()
	clusters := []int{2, 6}
	var res *harness.ScalabilityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunScalability(harness.ScalabilitySystems(), scale, clusters, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, sys := range harness.ScalabilitySystems() {
		p := res.Point(sys.Name, clusters[len(clusters)-1])
		b.ReportMetric(p.TotalMsgsPerCS, metricLabel(sys.Name, "msgs/CS"))
	}
}

// BenchmarkAdaptive regenerates the section 6 extension: the adaptive
// inter algorithm on a phased workload against the static compositions.
func BenchmarkAdaptive(b *testing.B) {
	scale := benchScale()
	scale.CSPerProcess = 25
	scale.Phases = harness.AdaptivePhases(scale)
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunPhased(harness.AdaptiveSystems(), scale, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range res.Points {
		b.ReportMetric(p.Obtaining.Mean, metricLabel(p.System, "ms"))
		if p.System == "Naimi-Adaptive" {
			b.ReportMetric(float64(p.Switches), "switches")
		}
	}
}

// BenchmarkComposedSendDeliver measures the composed send→deliver hot
// path end to end — a full naimi-naimi cell through simnet and the DES
// queue — and reports raw DES event throughput. This is the number the
// zero-allocation fast path optimizes; pair it with
// `gridbench -cpuprofile` to see where the remaining cycles go.
func BenchmarkComposedSendDeliver(b *testing.B) {
	scale := benchScale()
	scale.Rhos = []float64{24}
	systems := []harness.System{harness.Composed("naimi", "naimi")}
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(systems, scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Points[0].Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSimulatedCS measures simulator throughput: virtual critical
// sections executed per second of wall time at paper scale.
func BenchmarkSimulatedCS(b *testing.B) {
	scale := harness.PaperScale()
	scale.Repetitions = 1
	scale.Rhos = []float64{180}
	scale.CSPerProcess = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run([]harness.System{harness.Composed("naimi", "naimi")}, scale, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(scale.N()*scale.CSPerProcess), "CS/op")
}

// BenchmarkLiveLockUnlock measures the live in-process runtime: wall-clock
// cost of one uncontended Lock/Unlock round trip within a cluster.
func BenchmarkLiveLockUnlock(b *testing.B) {
	g, err := New(Config{Clusters: 2, AppsPerCluster: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	m := g.Mutex(0)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Lock(ctx); err != nil {
			b.Fatal(err)
		}
		m.Unlock()
	}
}

// BenchmarkTopologyOneWay measures the latency lookup on the hot path of
// every simulated message.
func BenchmarkTopologyOneWay(b *testing.B) {
	g := topology.Grid5000(21)
	n := g.NumNodes()
	b.ReportAllocs()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += g.OneWay(i%n, (i*7)%n)
	}
	_ = sink
}

// BenchmarkLocalBias regenerates the Bertier-style local-first ablation:
// obtaining time and handoffs with and without bias under saturation.
func BenchmarkLocalBias(b *testing.B) {
	scale := benchScale()
	scale.Rhos = []float64{6}
	scale.CSPerProcess = 20
	systems := []harness.System{
		harness.Composed("naimi", "naimi"),
		harness.Biased("naimi", "naimi", 8),
	}
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Run(systems, scale, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, sys := range systems {
		p := res.Point(sys.Name, 6)
		b.ReportMetric(p.Obtaining.Mean, metricLabel(sys.Name, "ms"))
	}
}
