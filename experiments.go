package gridmutex

import (
	"fmt"
	"sort"

	"gridmutex/internal/harness"
)

// ExperimentScale selects the size of a figure regeneration.
type ExperimentScale uint8

const (
	// ScaleQuick runs a 3x4 synthetic grid — seconds, same qualitative
	// shapes.
	ScaleQuick ExperimentScale = iota
	// ScalePaper runs the paper's dimensions: 9 Grid'5000 clusters, 180
	// application processes, 100 CS each, 10 repetitions per point.
	ScalePaper
)

func (s ExperimentScale) scale() harness.Scale {
	if s == ScalePaper {
		return harness.PaperScale()
	}
	return harness.QuickScale()
}

// RunOptions tunes how figure experiments execute without changing what
// they compute.
type RunOptions struct {
	// Workers is harness.Scale.Workers: each experiment's repetitions fan
	// out across this many goroutines (0 or 1 = serial on the calling
	// goroutine, negative = GOMAXPROCS), with byte-identical results.
	Workers int
}

// figureSpec wires one figure name to the experiment producing it; paper
// tells run the scale is ScalePaper, for the sweeps whose axis depends on it.
type figureSpec struct {
	describe string
	run      func(scale harness.Scale, paper bool, progress func(string), runs runCache) (string, error)
}

// runCache holds one call's harness.Run results by system set, so figures
// that plot different metrics of the same experiment (4a/4b/5a/5b; 6a/6b)
// share its runs when rendered together.
type runCache map[string]*harness.Result

func (c runCache) run(systems []harness.System, scale harness.Scale, progress func(string)) (*harness.Result, error) {
	key := fmt.Sprint(systems)
	if res, ok := c[key]; ok {
		return res, nil
	}
	res, err := harness.Run(systems, scale, progress)
	if err != nil {
		return nil, err
	}
	c[key] = res
	return res, nil
}

var figureSpecs = map[string]figureSpec{
	"fig3": {
		describe: "Grid5000 RTT latency matrix (input data, encoded verbatim)",
		run: func(harness.Scale, bool, func(string), runCache) (string, error) {
			return harness.Figure3Table(), nil
		},
	},
	"fig4a": {describe: "obtaining time vs rho: original Naimi vs compositions",
		run: sharedFigure(harness.CompositionSystems, harness.ObtainingMean, "Figure 4(a)")},
	"fig4b": {describe: "inter-cluster messages per CS vs rho",
		run: sharedFigure(harness.CompositionSystems, harness.InterMsgs, "Figure 4(b)")},
	"fig5a": {describe: "obtaining time standard deviation vs rho",
		run: sharedFigure(harness.CompositionSystems, harness.ObtainingStd, "Figure 5(a)")},
	"fig5b": {describe: "obtaining time relative deviation vs rho",
		run: sharedFigure(harness.CompositionSystems, harness.ObtainingRelStd, "Figure 5(b)")},
	"fig6a": {describe: "intra algorithm choice: obtaining time vs rho",
		run: sharedFigure(harness.IntraSystems, harness.ObtainingMean, "Figure 6(a)")},
	"fig6b": {describe: "intra algorithm choice: standard deviation vs rho",
		run: sharedFigure(harness.IntraSystems, harness.ObtainingStd, "Figure 6(b)")},
	"scale": {describe: "section 4.7 scalability: messages per CS vs cluster count",
		run: func(scale harness.Scale, paper bool, progress func(string), _ runCache) (string, error) {
			clusters := []int{2, 3, 6, 9, 12}
			if paper { // keep runtime sane
				clusters = []int{3, 6, 9, 12, 15}
			}
			res, err := harness.RunScalability(harness.ScalabilitySystems(), scale, clusters, progress)
			if err != nil {
				return "", err
			}
			return res.Table("Section 4.7"), nil
		}},
	"locality": {describe: "locality analysis: per-cluster obtaining time under a hotspot workload",
		run: func(scale harness.Scale, _ bool, progress func(string), _ runCache) (string, error) {
			n := float64(scale.N())
			res, err := harness.RunLocality(harness.LocalitySystems(), scale, 8*n, 0, 8, progress)
			if err != nil {
				return "", err
			}
			return res.LocalityTable("Locality under an 8x hot cluster 0", 0), nil
		}},
	"bias": {describe: "related-work extension (Bertier et al.): serve local requests before inter handoffs",
		run: func(scale harness.Scale, _ bool, progress func(string), _ runCache) (string, error) {
			// Two rhos spanning saturated and sparse regimes.
			n := float64(scale.N())
			scale.Rhos = []float64{n / 2, 4 * n}
			res, err := harness.Run(harness.BiasSystems(), scale, progress)
			if err != nil {
				return "", err
			}
			return res.BiasTable("Local bias ablation"), nil
		}},
	"recovery": {describe: "robustness extension: token regeneration latency and detector overhead vs heartbeat period",
		run: func(scale harness.Scale, _ bool, progress func(string), _ runCache) (string, error) {
			params, scale := harness.RecoverySweep(scale)
			res, err := harness.RunRecovery(params, scale, progress)
			if err != nil {
				return "", err
			}
			return res.Table("Crash recovery"), nil
		}},
	"partition": {describe: "robustness extension: graceful minority degradation and rejoin under partition windows",
		run: func(scale harness.Scale, _ bool, progress func(string), _ runCache) (string, error) {
			params, scale, err := harness.PartitionSweep(scale)
			if err != nil {
				return "", err
			}
			res, err := harness.RunPartition(params, scale, progress)
			if err != nil {
				return "", err
			}
			return res.Table("Partition tolerance"), nil
		}},
	"gridscale": {describe: "grid-scale memory axis: k-level trees, N swept over decades, memory per process recorded",
		run: func(scale harness.Scale, paper bool, progress func(string), _ runCache) (string, error) {
			// Paper scale reaches the 10⁵-node acceptance point; quick
			// stays at two decades. One repetition per point: the sweep
			// measures scaling shape and machine footprint, not
			// statistical aggregates.
			ns := harness.GridScaleNs(paper)
			res, err := harness.RunGridScale(ns, 1, scale.Alpha, scale.BaseSeed, progress)
			if err != nil {
				return "", err
			}
			return res.Table("Grid-scale sweep"), nil
		}},
	"adaptive": {describe: "section 6 extension: adaptive inter algorithm on a phased workload",
		run: func(scale harness.Scale, _ bool, progress func(string), _ runCache) (string, error) {
			scale.Phases = harness.AdaptivePhases(scale)
			res, err := harness.RunPhased(harness.AdaptiveSystems(), scale, progress)
			if err != nil {
				return "", err
			}
			return res.PhasedTable("Adaptive composition"), nil
		}},
}

// sharedFigure plots one metric of an experiment several figures draw on;
// its runs come from, and go to, the call's cache.
func sharedFigure(systems func() []harness.System, m harness.Metric, title string) func(harness.Scale, bool, func(string), runCache) (string, error) {
	return func(scale harness.Scale, _ bool, progress func(string), runs runCache) (string, error) {
		res, err := runs.run(systems(), scale, progress)
		if err != nil {
			return "", err
		}
		return res.Table(m, title) + "\n" + res.Chart(m, title), nil
	}
}

// Figures lists the regenerable figure names.
func Figures() []string {
	out := make([]string, 0, len(figureSpecs))
	for name := range figureSpecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DescribeFigure returns a one-line description of a figure name.
func DescribeFigure(name string) (string, error) {
	spec, ok := figureSpecs[name]
	if !ok {
		return "", fmt.Errorf("gridmutex: unknown figure %q (have %v)", name, Figures())
	}
	return spec.describe, nil
}

// ReproduceFigure regenerates one of the paper's figures as a text table.
// progress, when non-nil, receives a line per completed experiment cell.
func ReproduceFigure(name string, scale ExperimentScale, progress func(string)) (string, error) {
	return ReproduceFigureWith(name, scale, RunOptions{}, progress)
}

// ReproduceFigureWith is ReproduceFigure with execution options.
func ReproduceFigureWith(name string, scale ExperimentScale, opt RunOptions, progress func(string)) (string, error) {
	spec, ok := figureSpecs[name]
	if !ok {
		return "", fmt.Errorf("gridmutex: unknown figure %q (have %v)", name, Figures())
	}
	s := scale.scale()
	s.Workers = opt.Workers
	return spec.run(s, scale == ScalePaper, progress, runCache{})
}

// ReproduceAll regenerates every figure, sharing the underlying experiment
// runs between figures that plot different metrics of the same data (4a/4b/
// 5a/5b come from one run; 6a/6b from another).
func ReproduceAll(scale ExperimentScale, progress func(string)) (map[string]string, error) {
	return ReproduceAllWith(scale, RunOptions{}, progress)
}

// ReproduceAllWith is ReproduceAll with execution options.
func ReproduceAllWith(scale ExperimentScale, opt RunOptions, progress func(string)) (map[string]string, error) {
	s := scale.scale()
	s.Workers = opt.Workers
	out, runs := make(map[string]string), runCache{}
	for _, name := range Figures() {
		tab, err := figureSpecs[name].run(s, scale == ScalePaper, progress, runs)
		if err != nil {
			return nil, fmt.Errorf("gridmutex: %s experiment: %w", name, err)
		}
		out[name] = tab
	}
	return out, nil
}
