// Package stats provides the summary statistics the paper's evaluation
// reports: mean, standard deviation (figure 5(a)) and relative standard
// deviation σ/mean (figure 5(b)), plus percentiles for richer analysis.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator aggregates samples with Welford's online algorithm, so
// million-sample runs need no buffering. By default individual samples
// are discarded (compact mode). Two percentile backends are available:
// Sketch feeds a bounded-memory t-digest (no harness cell sets it: cells
// keep moments only, and gridsim's one cell retains), and Retain keeps
// every raw sample for exact order statistics — only accumulators that
// actually serve percentiles should pay either cost. When both are set,
// Percentile answers from the exact retained samples.
type Accumulator struct {
	// Retain keeps every pushed sample so Percentile is exact. The zero
	// value is compact: constant memory, no percentiles.
	Retain bool
	// Sketch feeds every pushed sample into a mergeable t-digest
	// (DefaultCompression), bounding memory at O(compression) while
	// keeping P50/P95/P99 within a fraction of a percent on smooth
	// distributions. Set it, like Retain, before the first Push.
	Sketch bool

	n        int64
	mean, m2 float64
	min, max float64
	// samples holds the retained values. Percentile sorts this slice in
	// place (ordering is irrelevant to the moment statistics), so there
	// is exactly one copy of the data; sorted tracks whether the last
	// Push or Merge invalidated that order.
	samples []float64
	sorted  bool
	digest  *TDigest
}

// Push adds one sample.
func (a *Accumulator) Push(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
	if a.Retain {
		a.samples = append(a.samples, x)
		a.sorted = false
	}
	if a.Sketch {
		if a.digest == nil {
			a.digest = NewTDigest(DefaultCompression)
		}
		a.digest.Add(x)
	}
}

// N returns the sample count.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean, or 0 with no samples.
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance.
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation σ.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// RelStd returns σ/mean, the relative deviation of figure 5(b); it is 0
// when the mean is 0.
func (a *Accumulator) RelStd() float64 {
	if a.mean == 0 {
		return 0
	}
	return a.Std() / a.mean
}

// Min returns the smallest sample, or 0 with no samples.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample, or 0 with no samples.
func (a *Accumulator) Max() float64 { return a.max }

// Percentile returns the p-quantile (0 <= p <= 1); it panics if neither
// percentile backend was enabled or p is out of range. With Retain the
// answer is exact — the first query after new data sorts the retained
// samples in place, further queries reuse that order. Otherwise the
// t-digest sketch answers by interpolation.
func (a *Accumulator) Percentile(p float64) float64 {
	if !a.Retain && !a.Sketch {
		panic("stats: percentiles unavailable without Retain or Sketch")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,1]", p))
	}
	if a.n == 0 {
		return 0
	}
	if !a.Retain {
		return a.digest.Quantile(p)
	}
	if !a.sorted {
		sort.Float64s(a.samples)
		a.sorted = true
	}
	s := a.samples
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary is a plain-value snapshot of an accumulator.
type Summary struct {
	N                   int64
	Mean, Std, RelStd   float64
	Min, Max            float64
	P50, P95, P99       float64
	PercentilesComputed bool
}

// Summarize snapshots the accumulator. With a percentile backend enabled
// (Retain sorts the samples at most once — see Percentile; Sketch queries
// the digest) it fills in P50/P95/P99.
func (a *Accumulator) Summarize() Summary {
	s := Summary{
		N: a.n, Mean: a.Mean(), Std: a.Std(), RelStd: a.RelStd(),
		Min: a.min, Max: a.max,
	}
	if (a.Retain || a.Sketch) && a.n > 0 {
		s.P50 = a.Percentile(0.50)
		s.P95 = a.Percentile(0.95)
		s.P99 = a.Percentile(0.99)
		s.PercentilesComputed = true
	}
	return s
}

// Merge folds other into a (Chan et al. parallel variance update). Each
// percentile backend survives only when both sides carry it: merging a
// compact accumulator into a retaining (or sketching) one drops that
// backend, since the combined sample set would be incomplete.
func (a *Accumulator) Merge(other *Accumulator) {
	if other.n == 0 {
		return
	}
	if a.n == 0 {
		retain := a.Retain && other.Retain
		sketch := a.Sketch && other.Sketch
		*a = *other
		a.Retain = retain
		if retain {
			a.samples = append([]float64(nil), other.samples...)
			a.sorted = false
		} else {
			a.samples = nil
		}
		a.Sketch = sketch
		if sketch {
			a.digest = other.digest.Clone()
		} else {
			a.digest = nil
		}
		return
	}
	na, nb := float64(a.n), float64(other.n)
	delta := other.mean - a.mean
	total := na + nb
	a.mean += delta * nb / total
	a.m2 += other.m2 + delta*delta*na*nb/total
	a.n += other.n
	if other.min < a.min {
		a.min = other.min
	}
	if other.max > a.max {
		a.max = other.max
	}
	if a.Retain && other.Retain {
		a.samples = append(a.samples, other.samples...)
		a.sorted = false
	} else {
		a.Retain = false
		a.samples = nil
	}
	if a.Sketch && other.Sketch {
		a.digest.Merge(other.digest)
	} else {
		a.Sketch = false
		a.digest = nil
	}
}

// JainIndex computes Jain's fairness index of the samples:
// (Σx)² / (n·Σx²). It is 1 when all samples are equal and approaches 1/n
// as one sample dominates; by convention the empty set is perfectly fair.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// tCritical95 holds two-sided 95% Student-t critical values by degrees of
// freedom (1..30); beyond 30 the normal approximation 1.96 is used.
var tCritical95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95Half returns the half-width of the two-sided 95% confidence interval
// of the mean of xs (Student-t); it is 0 with fewer than two samples. The
// variance is a direct Welford recurrence over the slice — no Accumulator
// is constructed.
func CI95Half(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	var mean, m2 float64
	for i, x := range xs {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	std := math.Sqrt(m2 / float64(n-1))
	dof := n - 1
	t := 1.96
	if dof-1 < len(tCritical95) {
		t = tCritical95[dof-1]
	}
	return t * std / math.Sqrt(float64(n))
}
