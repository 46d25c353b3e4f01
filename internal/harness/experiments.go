package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

// CompositionSystems returns the four curves of figures 4 and 5: the
// original Naimi-Trehel baseline and the three compositions with Naimi as
// the intra algorithm (section 4.1 fixes the intra algorithm to Naimi's
// because the inter algorithm dominates performance).
func CompositionSystems() []System {
	return []System{
		Flat("naimi"),
		Composed("naimi", "naimi"),
		Composed("naimi", "martin"),
		Composed("naimi", "suzuki"),
	}
}

// IntraSystems returns the three curves of figure 6: the inter algorithm
// fixed to Naimi's, the intra algorithm varying.
func IntraSystems() []System {
	return []System{
		Composed("naimi", "naimi"),
		Composed("martin", "naimi"),
		Composed("suzuki", "naimi"),
	}
}

// Metric selects which aggregate a table column shows.
type Metric uint8

const (
	// ObtainingMean is the mean obtaining time in ms (figures 4(a),
	// 6(a)).
	ObtainingMean Metric = iota
	// ObtainingStd is σ of the obtaining time in ms (figures 5(a),
	// 6(b)).
	ObtainingStd
	// ObtainingRelStd is σ/mean (figure 5(b)).
	ObtainingRelStd
	// InterMsgs is inter-cluster sent messages per CS (figure 4(b)).
	InterMsgs
	// TotalMsgs is all sent messages per CS.
	TotalMsgs
	// InterBytes is inter-cluster bytes per CS.
	InterBytes
	// Fairness is Jain's index over per-process mean obtaining times.
	Fairness
)

// String names the metric with its unit.
func (m Metric) String() string {
	switch m {
	case ObtainingMean:
		return "obtaining time mean (ms)"
	case ObtainingStd:
		return "obtaining time std dev (ms)"
	case ObtainingRelStd:
		return "obtaining time relative std dev"
	case InterMsgs:
		return "inter-cluster messages per CS"
	case TotalMsgs:
		return "total messages per CS"
	case InterBytes:
		return "inter-cluster bytes per CS"
	case Fairness:
		return "Jain fairness index of per-process mean obtaining time"
	default:
		return fmt.Sprintf("Metric(%d)", uint8(m))
	}
}

func (p *Point) metric(m Metric) float64 {
	switch m {
	case ObtainingMean:
		return p.Obtaining.Mean
	case ObtainingStd:
		return p.Obtaining.Std
	case ObtainingRelStd:
		return p.Obtaining.RelStd
	case InterMsgs:
		return p.InterMsgsPerCS
	case TotalMsgs:
		return p.TotalMsgsPerCS
	case InterBytes:
		return p.InterBytesPerCS
	case Fairness:
		return p.Fairness
	default:
		panic(fmt.Sprintf("harness: unknown metric %d", m))
	}
}

// Table renders one metric as an aligned text table: one row per ρ, one
// column per system — the same series the paper plots.
func (r *Result) Table(m Metric, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", title, m)
	fmt.Fprintf(&b, "N = %d application processes, alpha = %v, %d CS/process, %d repetitions\n",
		r.Scale.N(), r.Scale.Alpha, r.Scale.CSPerProcess, r.Scale.Repetitions)
	fmt.Fprintf(&b, "%10s", "rho")
	for _, s := range r.Systems {
		fmt.Fprintf(&b, "  %20s", s.Name)
	}
	b.WriteByte('\n')
	for _, rho := range r.Scale.Rhos {
		fmt.Fprintf(&b, "%10.0f", rho)
		for _, s := range r.Systems {
			p := r.Point(s.Name, rho)
			if p == nil {
				fmt.Fprintf(&b, "  %20s", "-")
				continue
			}
			fmt.Fprintf(&b, "  %20.3f", p.metric(m))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ScalabilityResult aggregates the section 4.7 experiment: one point per
// (system, cluster count), with Clusters set.
type ScalabilityResult struct {
	Clusters []int
	*Result
}

// Point returns the cell for (system, clusters), or nil.
func (r *ScalabilityResult) Point(system string, clusters int) *Point {
	for i := range r.Points {
		if r.Points[i].System == system && r.Points[i].Clusters == clusters {
			return &r.Points[i]
		}
	}
	return nil
}

// ScalabilitySystems returns the curves of the section 4.7 discussion:
// original Suzuki and Naimi against their self-compositions.
func ScalabilitySystems() []System {
	return []System{
		Flat("suzuki"),
		Composed("suzuki", "suzuki"),
		Flat("naimi"),
		Composed("naimi", "naimi"),
	}
}

// RunScalability sweeps the cluster count at a fixed intermediate ρ and
// reports per-CS message costs. scale.Clusters is ignored; clusters lists
// the x axis. Synthetic uniform topologies keep latency constant so only
// the node count varies.
func RunScalability(systems []System, scale Scale, clusters []int, progress func(string)) (*ScalabilityResult, error) {
	cells := make([]cell, 0, len(systems)*len(clusters))
	for _, sys := range systems {
		for _, k := range clusters {
			s := scale
			s.Clusters, s.UseGrid5000 = k, false
			rho := 2 * float64(s.N()) // intermediate parallelism for every size
			cells = append(cells, cell{sys: sys.RunSystem(), scale: s, at: Point{System: sys.Name, Rho: rho, Clusters: k}})
		}
	}
	res, err := sweep(systems, scale, cells, progress, func(p *Point) string {
		return fmt.Sprintf("%-22s clusters=%2d  msgs/CS=%7.2f  inter/CS=%6.2f",
			p.System, p.Clusters, p.TotalMsgsPerCS, p.InterMsgsPerCS)
	})
	if err != nil {
		return nil, err
	}
	return &ScalabilityResult{Clusters: clusters, Result: res}, nil
}

// Table renders the scalability experiment.
func (r *ScalabilityResult) Table(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — total messages per CS vs cluster count\n", title)
	fmt.Fprintf(&b, "%10s", "clusters")
	for _, s := range r.Systems {
		fmt.Fprintf(&b, "  %20s", s.Name)
	}
	b.WriteByte('\n')
	for _, k := range r.Clusters {
		fmt.Fprintf(&b, "%10d", k)
		for _, s := range r.Systems {
			p := r.Point(s.Name, k)
			if p == nil {
				fmt.Fprintf(&b, "  %20s", "-")
				continue
			}
			fmt.Fprintf(&b, "  %20.2f", p.TotalMsgsPerCS)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure3Table renders the encoded Grid'5000 latency matrix for comparison
// against the paper's figure 3.
func Figure3Table() string {
	g := topology.Grid5000(1)
	var b strings.Builder
	b.WriteString("Figure 3 — Grid5000 RTT latencies (ms), measured matrix encoded verbatim\n")
	fmt.Fprintf(&b, "%10s", "from\\to")
	for c := 0; c < g.NumClusters(); c++ {
		fmt.Fprintf(&b, " %9s", g.ClusterName(c))
	}
	b.WriteByte('\n')
	for i := 0; i < g.NumClusters(); i++ {
		fmt.Fprintf(&b, "%10s", g.ClusterName(i))
		for j := 0; j < g.NumClusters(); j++ {
			fmt.Fprintf(&b, " %9.3f", float64(g.RTT(i, j).Microseconds())/1000)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedSystemNames returns the experiment's system names sorted, mostly
// for stable test assertions.
func (r *Result) SortedSystemNames() []string {
	names := make([]string, len(r.Systems))
	for i, s := range r.Systems {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// AdaptiveSystems returns the curves of the adaptive-composition ablation:
// the three static inter algorithms against the runtime-switching one.
func AdaptiveSystems() []System {
	return []System{
		Composed("naimi", "martin"),
		Composed("naimi", "naimi"),
		Composed("naimi", "suzuki"),
		Adaptive("naimi", "naimi"),
	}
}

// AdaptivePhases builds the phase schedule of the ablation: a saturated
// low-parallelism phase, then a sparse high-parallelism phase, then an
// intermediate one, with boundaries proportional to the expected run
// length so the schedule scales with the workload.
func AdaptivePhases(scale Scale) []workload.Phase {
	n := float64(scale.N())
	// A saturated system serves one CS per alpha; a full run therefore
	// spans at least N*CSPerProcess*alpha. Stretch by 1.5 for the
	// lighter phases.
	span := time.Duration(1.5 * n * float64(scale.CSPerProcess) * float64(scale.Alpha))
	return []workload.Phase{
		{Rho: n / 4, Until: span / 3},
		{Rho: 6 * n, Until: 2 * span / 3},
		{Rho: 1.5 * n},
	}
}

// RunPhased executes every system once per repetition under the scale's
// phase schedule, producing one aggregated Point per system (Rho is 0 in
// phased results).
func RunPhased(systems []System, scale Scale, progress func(string)) (*Result, error) {
	if len(scale.Phases) == 0 {
		return nil, fmt.Errorf("harness: RunPhased needs scale.Phases")
	}
	cells := make([]cell, len(systems))
	for i, sys := range systems {
		cells[i] = cell{sys: sys.RunSystem(), scale: scale, at: Point{System: sys.Name}}
	}
	return sweep(systems, scale, cells, progress, func(p *Point) string {
		return fmt.Sprintf("%-22s obtain=%8.2fms  inter/CS=%6.2f  switches=%d",
			p.System, p.Obtaining.Mean, p.InterMsgsPerCS, p.Switches)
	})
}

// PhasedTable renders a phased experiment: one row per system, with the
// obtaining time broken down per workload phase.
func (r *Result) PhasedTable(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — phased workload (rho schedule: %v)\n", title, r.Scale.Phases)
	fmt.Fprintf(&b, "%-22s %12s", "system", "obtain(ms)")
	for i := range r.Scale.Phases {
		fmt.Fprintf(&b, " %11s", fmt.Sprintf("phase%d(ms)", i+1))
	}
	fmt.Fprintf(&b, " %10s %10s\n", "inter/CS", "switches")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-22s %12.3f", p.System, p.Obtaining.Mean)
		for _, ph := range p.PhaseObtaining {
			fmt.Fprintf(&b, " %11.3f", ph.Mean)
		}
		fmt.Fprintf(&b, " %10.3f %10d\n", p.InterMsgsPerCS, p.Switches)
	}
	return b.String()
}

// BiasSystems returns the curves of the local-bias ablation: the plain
// composition against increasing Bertier-style bias budgets.
func BiasSystems() []System {
	return []System{
		Composed("naimi", "naimi"),
		Biased("naimi", "naimi", 2),
		Biased("naimi", "naimi", 8),
	}
}

// BiasTable renders the local-bias ablation with its dedicated columns.
func (r *Result) BiasTable(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — local-first bias (Bertier-style) at each rho\n", title)
	fmt.Fprintf(&b, "%-22s %8s %12s %12s %12s %12s\n",
		"system", "rho", "obtain(ms)", "inter/CS", "handoffs", "bias-rounds")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-22s %8.0f %12.3f %12.3f %12d %12d\n",
			p.System, p.Rho, p.Obtaining.Mean, p.InterMsgsPerCS, p.Handoffs, p.BiasRounds)
	}
	return b.String()
}

// LocalitySystems returns the curves of the locality analysis: the
// original algorithm against the composition under a cluster-skewed
// workload.
func LocalitySystems() []System {
	return []System{
		Flat("naimi"),
		Composed("naimi", "naimi"),
	}
}

// RunLocality executes the locality experiment: one rho, the workload
// skewed toward cluster hot, obtaining time reported per cluster. The
// composition should serve the hot cluster far faster (the inter token
// parks there) while the original algorithm cannot exploit locality.
func RunLocality(systems []System, scale Scale, rho float64, hot int, skew float64, progress func(string)) (*Result, error) {
	scale.HotCluster, scale.HotSkew = hot, skew
	scale.Rhos = []float64{rho}
	return Run(systems, scale, progress)
}

// LocalityTable renders per-cluster obtaining times: one row per cluster,
// one column per system, the hot cluster marked.
func (r *Result) LocalityTable(title string, hot int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — obtaining time (ms) by requester cluster (hot cluster marked *)\n", title)
	fmt.Fprintf(&b, "%10s", "cluster")
	for _, s := range r.Systems {
		fmt.Fprintf(&b, "  %20s", s.Name)
	}
	b.WriteByte('\n')
	clusters := 0
	for i := range r.Points {
		if len(r.Points[i].PerCluster) > clusters {
			clusters = len(r.Points[i].PerCluster)
		}
	}
	for c := 0; c < clusters; c++ {
		mark := " "
		if c == hot {
			mark = "*"
		}
		fmt.Fprintf(&b, "%9d%s", c, mark)
		for _, s := range r.Systems {
			p := r.Point(s.Name, r.Scale.Rhos[0])
			if p == nil || c >= len(p.PerCluster) {
				fmt.Fprintf(&b, "  %20s", "-")
				continue
			}
			fmt.Fprintf(&b, "  %20.3f", p.PerCluster[c].Mean)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
