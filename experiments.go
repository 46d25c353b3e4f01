package gridmutex

import "gridmutex/internal/harness"

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

// Figures lists the regenerable figure names, sorted.
func Figures() []string { return harness.Figures() }

// DescribeFigure returns a one-line description of a figure name.
func DescribeFigure(name string) (string, error) { return harness.Describe(name) }

// ReproduceFigure regenerates one of the paper's figures as a text table.
// progress, when non-nil, receives a line per completed experiment cell.
// Repetitions run on GOMAXPROCS goroutines; the output is byte-identical
// for every count.
func ReproduceFigure(name string, scale ExperimentScale, progress func(string)) (string, error) {
	figs, err := harness.Reproduce([]string{name}, scale == ScalePaper, progress)
	return figs[name], err
}

// ReproduceAll regenerates every figure, sharing the underlying experiment
// runs between figures that plot different metrics of the same data (4a/4b/
// 5a/5b come from one run; 6a/6b from another).
func ReproduceAll(scale ExperimentScale, progress func(string)) (map[string]string, error) {
	return harness.Reproduce(Figures(), scale == ScalePaper, progress)
}
