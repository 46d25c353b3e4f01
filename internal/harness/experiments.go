package harness

import (
	"fmt"
	"strings"
	"time"

	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

// figure is one row of the catalogue: a table's name, its one-line
// description, and render, which runs everything the table shows at scale
// and renders it. paper is set at paper scale, for the sweeps whose axis
// depends on it; runs several tables plot come from, and go to, shared.
type figure struct {
	name, describe string
	render         func(scale Scale, paper bool, shared sharedRuns, progress func(string)) (string, error)
}

// intraSystems are the three curves of figure 6: the inter algorithm fixed
// to Naimi's, the intra algorithm varying.
var intraSystems = []System{Composed("naimi", "naimi"), Composed("martin", "naimi"), Composed("suzuki", "naimi")}

// figures is the catalogue, sorted by name: every table of the paper's
// evaluation and of its extensions, each stating its systems, axis, scale
// overrides and renderer.
var figures = []figure{
	{"adaptive", "section 6 extension: adaptive inter algorithm on a phased workload",
		func(scale Scale, _ bool, _ sharedRuns, progress func(string)) (string, error) {
			scale.Phases = AdaptivePhases(scale)
			res, err := Run(AdaptiveSystems(), scale, progress)
			if err != nil {
				return "", err
			}
			return res.PhasedTable("Adaptive composition"), nil
		}},
	{"bias", "related-work extension (Bertier et al.): serve local requests before inter handoffs",
		func(scale Scale, _ bool, _ sharedRuns, progress func(string)) (string, error) {
			// The plain composition against growing Bertier-style bias
			// budgets, at two rhos spanning saturated and sparse regimes.
			n := float64(scale.N())
			scale.Rhos = []float64{n / 2, 4 * n}
			res, err := Run([]System{Composed("naimi", "naimi"), Biased("naimi", "naimi", 2), Biased("naimi", "naimi", 8)}, scale, progress)
			if err != nil {
				return "", err
			}
			return res.biasTable("Local bias ablation"), nil
		}},
	{"fig3", "Grid5000 RTT latency matrix (input data, encoded verbatim)",
		func(Scale, bool, sharedRuns, func(string)) (string, error) { return figure3Table(), nil }},
	{"fig4a", "obtaining time vs rho: original Naimi vs compositions", plot(CompositionSystems(), ObtainingMean, "Figure 4(a)")},
	{"fig4b", "inter-cluster messages per CS vs rho", plot(CompositionSystems(), InterMsgs, "Figure 4(b)")},
	{"fig5a", "obtaining time standard deviation vs rho", plot(CompositionSystems(), ObtainingStd, "Figure 5(a)")},
	{"fig5b", "obtaining time relative deviation vs rho", plot(CompositionSystems(), ObtainingRelStd, "Figure 5(b)")},
	{"fig6a", "intra algorithm choice: obtaining time vs rho", plot(intraSystems, ObtainingMean, "Figure 6(a)")},
	{"fig6b", "intra algorithm choice: standard deviation vs rho", plot(intraSystems, ObtainingStd, "Figure 6(b)")},
	{"gridscale", "grid-scale memory axis: k-level trees, N swept over decades, memory per process recorded",
		func(scale Scale, paper bool, _ sharedRuns, progress func(string)) (string, error) {
			// One repetition per point: the sweep measures scaling shape
			// and machine footprint, not statistical aggregates.
			res, err := RunGridScale(gridScaleNs(paper), 1, scale.Alpha, scale.BaseSeed, progress)
			if err != nil {
				return "", err
			}
			return res.Table("Grid-scale sweep"), nil
		}},
	{"locality", "locality analysis: per-cluster obtaining time under a hotspot workload",
		func(scale Scale, _ bool, _ sharedRuns, progress func(string)) (string, error) {
			// The original algorithm against the composition at one rho,
			// the workload skewed 8x toward cluster 0.
			scale.Rhos, scale.HotCluster, scale.HotSkew = []float64{8 * float64(scale.N())}, 0, 8
			res, err := Run([]System{Flat("naimi"), Composed("naimi", "naimi")}, scale, progress)
			if err != nil {
				return "", err
			}
			return res.localityTable("Locality under an 8x hot cluster 0"), nil
		}},
	{"partition", "robustness extension: graceful minority degradation and rejoin under partition windows",
		func(scale Scale, _ bool, _ sharedRuns, progress func(string)) (string, error) {
			params, scale, err := partitionSweep(scale)
			if err != nil {
				return "", err
			}
			res, err := runPartition(params, scale, progress)
			if err != nil {
				return "", err
			}
			return res.partitionTable("Partition tolerance"), nil
		}},
	{"recovery", "robustness extension: token regeneration latency and detector overhead vs heartbeat period",
		func(scale Scale, _ bool, _ sharedRuns, progress func(string)) (string, error) {
			params, scale := recoverySweep(scale)
			res, err := RunRecovery(params, scale, progress)
			if err != nil {
				return "", err
			}
			return res.Table("Crash recovery"), nil
		}},
	{"scale", "section 4.7 scalability: messages per CS vs cluster count",
		func(scale Scale, paper bool, _ sharedRuns, progress func(string)) (string, error) {
			clusters := []int{2, 3, 6, 9, 12}
			if paper { // keep runtime sane
				clusters = []int{3, 6, 9, 12, 15}
			}
			// Original Suzuki and Naimi against their self-compositions.
			systems := []System{Flat("suzuki"), Composed("suzuki", "suzuki"), Flat("naimi"), Composed("naimi", "naimi")}
			res, err := runScalability(systems, scale, clusters, progress)
			if err != nil {
				return "", err
			}
			return res.table("Section 4.7"), nil
		}},
}

// sharedRuns holds one Reproduce call's Run results by system set, so
// figures that plot different metrics of the same experiment (4a/4b/5a/5b;
// 6a/6b) share its runs.
type sharedRuns map[string]*Result

// plot renders one metric, as table and chart, of the run of systems that
// several figures draw on: the first of them runs it into shared.
func plot(systems []System, m Metric, title string) func(Scale, bool, sharedRuns, func(string)) (string, error) {
	return func(scale Scale, _ bool, shared sharedRuns, progress func(string)) (string, error) {
		key := fmt.Sprint(systems)
		if shared[key] == nil {
			res, err := Run(systems, scale, progress)
			if err != nil {
				return "", err
			}
			shared[key] = res
		}
		return shared[key].Table(m, title) + "\n" + shared[key].Chart(m, title), nil
	}
}

// Figures lists the catalogue's figure names, sorted.
func Figures() []string {
	names := make([]string, len(figures))
	for i := range figures {
		names[i] = figures[i].name
	}
	return names
}

func lookup(name string) (*figure, error) {
	for i := range figures {
		if figures[i].name == name {
			return &figures[i], nil
		}
	}
	return nil, fmt.Errorf("harness: unknown figure %q (have %v)", name, Figures())
}

// Describe returns a one-line description of a figure name.
func Describe(name string) (string, error) {
	f, err := lookup(name)
	if err != nil {
		return "", err
	}
	return f.describe, nil
}

// Reproduce runs and renders the named figures at PaperScale, or with
// paper unset at QuickScale, keyed by name. progress, when non-nil,
// receives a line per completed experiment cell. Figures that plot
// different metrics of one experiment share its runs.
func Reproduce(names []string, paper bool, progress func(string)) (map[string]string, error) {
	scale := QuickScale()
	if paper {
		scale = PaperScale()
	}
	out, shared := make(map[string]string, len(names)), sharedRuns{}
	for _, name := range names {
		f, err := lookup(name)
		if err != nil {
			return nil, err
		}
		if out[name], err = f.render(scale, paper, shared, progress); err != nil {
			return nil, fmt.Errorf("harness: %s experiment: %w", name, err)
		}
	}
	return out, nil
}

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

// scalabilityResult aggregates the section 4.7 experiment: one point per
// (system, cluster count), with Clusters set.
type scalabilityResult struct {
	clusters []int
	*Result
}

// point returns the cell for (system, clusters), or nil.
func (r *scalabilityResult) point(system string, clusters int) *Point {
	for i := range r.Points {
		if r.Points[i].System == system && r.Points[i].Clusters == clusters {
			return &r.Points[i]
		}
	}
	return nil
}

// runScalability sweeps the cluster count at a fixed intermediate ρ and
// reports per-CS message costs. scale.Clusters is ignored; clusters lists
// the x axis. Synthetic uniform topologies keep latency constant so only
// the node count varies.
func runScalability(systems []System, scale Scale, clusters []int, progress func(string)) (*scalabilityResult, error) {
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
	return &scalabilityResult{clusters: clusters, Result: res}, nil
}

// table renders the scalability experiment.
func (r *scalabilityResult) table(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — total messages per CS vs cluster count\n", title)
	fmt.Fprintf(&b, "%10s", "clusters")
	for _, s := range r.Systems {
		fmt.Fprintf(&b, "  %20s", s.Name)
	}
	b.WriteByte('\n')
	for _, k := range r.clusters {
		fmt.Fprintf(&b, "%10d", k)
		for _, s := range r.Systems {
			p := r.point(s.Name, k)
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

// figure3Table renders the encoded Grid'5000 latency matrix for comparison
// against the paper's figure 3.
func figure3Table() string {
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

// biasTable renders the local-bias ablation with its dedicated columns.
func (r *Result) biasTable(title string) string {
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

// localityTable renders per-cluster obtaining times: one row per cluster,
// one column per system, the scale's hot cluster marked. The composition
// should serve the hot cluster far faster (the inter token parks there)
// while the original algorithm cannot exploit locality.
func (r *Result) localityTable(title string) string {
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
		if c == r.Scale.HotCluster {
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
