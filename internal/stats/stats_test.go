package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestEmptyAccumulator(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Std() != 0 || a.RelStd() != 0 {
		t.Fatal("empty accumulator not zeroed")
	}
	s := a.Summarize()
	if s.N != 0 || s.PercentilesComputed {
		t.Fatalf("empty summary: %+v", s)
	}
	e := Accumulator{Retain: true}
	if s := e.Summarize(); s.PercentilesComputed {
		t.Fatalf("empty retaining summary claims percentiles: %+v", s)
	}
}

func TestKnownValues(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Push(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if !almostEqual(a.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if !almostEqual(a.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %v, want %v", a.Var(), 32.0/7.0)
	}
	if !almostEqual(a.RelStd(), a.Std()/5, 1e-12) {
		t.Errorf("RelStd = %v", a.RelStd())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
}

func TestSingleSample(t *testing.T) {
	a := Accumulator{Retain: true}
	a.Push(42)
	if a.Std() != 0 {
		t.Errorf("Std of one sample = %v", a.Std())
	}
	if a.Percentile(0.5) != 42 || a.Percentile(0) != 42 || a.Percentile(1) != 42 {
		t.Error("percentiles of one sample should all be that sample")
	}
}

func TestPercentiles(t *testing.T) {
	a := Accumulator{Retain: true}
	for i := 1; i <= 100; i++ {
		a.Push(float64(i))
	}
	if got := a.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := a.Percentile(1); got != 100 {
		t.Errorf("P100 = %v", got)
	}
	if got := a.Percentile(0.5); !almostEqual(got, 50.5, 1e-9) {
		t.Errorf("P50 = %v, want 50.5", got)
	}
	if got := a.Percentile(0.95); !almostEqual(got, 95.05, 1e-9) {
		t.Errorf("P95 = %v, want 95.05", got)
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	a := Accumulator{Retain: true}
	for _, x := range []float64{9, 1, 5, 3, 7} {
		a.Push(x)
	}
	if got := a.Percentile(0.5); got != 5 {
		t.Errorf("median of {1,3,5,7,9} = %v", got)
	}
	// Pushing after a percentile query must invalidate the sorted cache.
	a.Push(0)
	if got := a.Percentile(0); got != 0 {
		t.Errorf("P0 after new push = %v, want 0", got)
	}
}

// TestCompactByDefault: the zero-value accumulator retains nothing —
// constant memory — and refuses percentile queries.
func TestCompactByDefault(t *testing.T) {
	var a Accumulator
	for i := 0; i < 1000; i++ {
		a.Push(float64(i))
	}
	if !almostEqual(a.Mean(), 499.5, 1e-9) {
		t.Errorf("Mean = %v", a.Mean())
	}
	if a.samples != nil {
		t.Errorf("compact accumulator retained %d samples", len(a.samples))
	}
	if s := a.Summarize(); s.PercentilesComputed {
		t.Errorf("compact summary claims percentiles: %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("Percentile in compact mode did not panic")
		}
	}()
	a.Percentile(0.5)
}

func TestPercentileRangePanics(t *testing.T) {
	a := Accumulator{Retain: true}
	a.Push(1)
	for _, p := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", p)
				}
			}()
			a.Percentile(p)
		}()
	}
}

func TestSummarize(t *testing.T) {
	a := Accumulator{Retain: true}
	for i := 1; i <= 10; i++ {
		a.Push(float64(i))
	}
	s := a.Summarize()
	if s.N != 10 || !s.PercentilesComputed {
		t.Fatalf("summary %+v", s)
	}
	if !almostEqual(s.Mean, 5.5, 1e-12) || !almostEqual(s.P50, 5.5, 1e-9) {
		t.Errorf("summary %+v", s)
	}
}

func TestMerge(t *testing.T) {
	a := Accumulator{Retain: true}
	b := Accumulator{Retain: true}
	all := Accumulator{Retain: true}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		x := rng.NormFloat64()*3 + 10
		all.Push(x)
		if i%2 == 0 {
			a.Push(x)
		} else {
			b.Push(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if !almostEqual(a.Mean(), all.Mean(), 1e-9) {
		t.Errorf("merged mean %v vs %v", a.Mean(), all.Mean())
	}
	if !almostEqual(a.Var(), all.Var(), 1e-9) {
		t.Errorf("merged var %v vs %v", a.Var(), all.Var())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Error("merged min/max wrong")
	}
	if !almostEqual(a.Percentile(0.5), all.Percentile(0.5), 1e-9) {
		t.Error("merged percentile wrong")
	}
}

func TestMergeEmptyCases(t *testing.T) {
	var a, b Accumulator
	a.Merge(&b) // both empty
	if a.N() != 0 {
		t.Fatal("merging empties created samples")
	}
	b.Push(3)
	a.Merge(&b)
	if a.N() != 1 || a.Mean() != 3 {
		t.Fatal("merge into empty failed")
	}
	var c Accumulator
	a.Merge(&c) // merge empty into non-empty
	if a.N() != 1 {
		t.Fatal("merging empty changed N")
	}
}

func TestMergeCompactPoisons(t *testing.T) {
	a := Accumulator{Retain: true}
	a.Push(1)
	var b Accumulator
	b.Push(2)
	a.Merge(&b)
	if a.Retain || a.samples != nil {
		t.Fatal("merge with a compact side should drop retention")
	}
	// Merging a retaining accumulator into an empty compact one must not
	// resurrect retention either: the empty side never retained.
	var c Accumulator
	d := Accumulator{Retain: true}
	d.Push(3)
	c.Merge(&d)
	if c.Retain || c.samples != nil {
		t.Fatal("merge into empty compact accumulator kept samples")
	}
	if c.N() != 1 || c.Mean() != 3 {
		t.Fatalf("merge into empty compact accumulator lost moments: n=%d mean=%v", c.N(), c.Mean())
	}
}

// TestMergePreservesSourceSamples: Merge must copy, not alias, the other
// side's samples when folding into an empty accumulator, and must leave
// the source usable.
func TestMergePreservesSourceSamples(t *testing.T) {
	a := Accumulator{Retain: true}
	b := Accumulator{Retain: true}
	for _, x := range []float64{3, 1, 2} {
		b.Push(x)
	}
	a.Merge(&b)
	if got := a.Percentile(0.5); got != 2 {
		t.Fatalf("merged median = %v", got)
	}
	// Sorting a's samples during the percentile query must not reorder
	// b's retained slice.
	if b.samples[0] != 3 || b.samples[1] != 1 || b.samples[2] != 2 {
		t.Fatalf("merge aliased source samples: %v", b.samples)
	}
}

// Property: Welford matches the naive two-pass computation.
func TestPropertyMatchesNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var a Accumulator
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			a.Push(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		va := 0.0
		if len(xs) > 1 {
			va = m2 / float64(len(xs)-1)
		}
		return almostEqual(a.Mean(), mean, 1e-6*(1+math.Abs(mean))) &&
			almostEqual(a.Var(), va, 1e-5*(1+va))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: merging any split equals pushing everything into one
// accumulator.
func TestPropertyMergeEquivalence(t *testing.T) {
	f := func(raw []int16, cut uint8) bool {
		var whole, left, right Accumulator
		k := 0
		if len(raw) > 0 {
			k = int(cut) % (len(raw) + 1)
		}
		for i, r := range raw {
			x := float64(r)
			whole.Push(x)
			if i < k {
				left.Push(x)
			} else {
				right.Push(x)
			}
		}
		left.Merge(&right)
		return left.N() == whole.N() &&
			almostEqual(left.Mean(), whole.Mean(), 1e-6*(1+math.Abs(whole.Mean()))) &&
			almostEqual(left.Var(), whole.Var(), 1e-5*(1+whole.Var()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
		eps  float64
	}{
		{"empty", nil, 1, 0},
		{"all zero", []float64{0, 0}, 1, 0},
		{"equal", []float64{5, 5, 5, 5}, 1, 1e-12},
		{"one dominates", []float64{0, 0, 0, 10}, 0.25, 1e-12},
		{"two of four", []float64{1, 1, 0, 0}, 0.5, 1e-12},
	}
	for _, c := range cases {
		if got := JainIndex(c.xs); math.Abs(got-c.want) > c.eps {
			t.Errorf("%s: JainIndex = %v, want %v", c.name, got, c.want)
		}
	}
}

// Property: Jain's index is scale-invariant and within (0, 1].
func TestPropertyJainIndexBounds(t *testing.T) {
	f := func(raw []uint16, scale uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		k := float64(scale%9) + 1
		for i, r := range raw {
			xs[i] = float64(r)
			scaled[i] = k * xs[i]
		}
		j := JainIndex(xs)
		if j <= 0 || j > 1+1e-12 {
			return false
		}
		return math.Abs(j-JainIndex(scaled)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCI95Half(t *testing.T) {
	if CI95Half(nil) != 0 || CI95Half([]float64{5}) != 0 {
		t.Fatal("CI of <2 samples must be 0")
	}
	// Identical samples: zero-width interval.
	if got := CI95Half([]float64{3, 3, 3, 3}); got != 0 {
		t.Fatalf("CI of constant data = %v", got)
	}
	// Two samples {0, 2}: mean 1, s = sqrt(2), t(1) = 12.706.
	want := 12.706 * math.Sqrt2 / math.Sqrt(2)
	if got := CI95Half([]float64{0, 2}); !almostEqual(got, want, 1e-9) {
		t.Fatalf("CI = %v, want %v", got, want)
	}
	// More samples narrow the interval.
	wide := CI95Half([]float64{0, 2, 0, 2})
	wider := CI95Half([]float64{0, 2})
	if wide >= wider {
		t.Fatalf("CI did not narrow: %v vs %v", wide, wider)
	}
	// Large n uses the normal critical value.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 2)
	}
	got := CI95Half(big)
	s := 0.5025189076296064 // sample std of alternating 0/1 over 100
	if !almostEqual(got, 1.96*s/10, 1e-3) {
		t.Fatalf("large-n CI = %v", got)
	}
}

// TestMergeSortedFlagInvalidation: a percentile query sorts the retained
// samples; a subsequent Merge must invalidate that order so the next
// query re-sorts over the combined set.
func TestMergeSortedFlagInvalidation(t *testing.T) {
	a := Accumulator{Retain: true}
	for _, x := range []float64{5, 1, 9} {
		a.Push(x)
	}
	if got := a.Percentile(0.5); got != 5 { // sorts [1 5 9]
		t.Fatalf("median before merge = %v", got)
	}
	b := Accumulator{Retain: true}
	for _, x := range []float64{2, 3} {
		b.Push(x)
	}
	a.Merge(&b)                             // appends [2 3] after the sorted run
	if got := a.Percentile(0.5); got != 3 { // must re-sort [1 2 3 5 9]
		t.Fatalf("median after merge = %v, want 3", got)
	}
	// Push after a query must invalidate too.
	a.Push(0)
	if got := a.Percentile(0); got != 0 {
		t.Fatalf("min percentile after push = %v, want 0", got)
	}
}

// TestSketchMode: the t-digest backend answers percentiles without
// retaining samples, and the mode survives only sketch↔sketch merges.
func TestSketchMode(t *testing.T) {
	a := Accumulator{Sketch: true}
	for i := 1; i <= 1000; i++ {
		a.Push(float64(i))
	}
	if a.samples != nil {
		t.Fatal("sketch mode retained raw samples")
	}
	if got := a.Percentile(0.5); relErr(got, 500.5) > 0.01 {
		t.Fatalf("sketch median = %v, want ~500.5", got)
	}
	s := a.Summarize()
	if !s.PercentilesComputed || s.P50 == 0 || s.P99 == 0 {
		t.Fatalf("Summarize skipped sketch percentiles: %+v", s)
	}

	// sketch ← compact drops the sketch (incomplete sample set).
	var compact Accumulator
	compact.Push(7)
	b := Accumulator{Sketch: true}
	b.Push(1)
	b.Merge(&compact)
	if b.Sketch || b.digest != nil {
		t.Fatal("merge with a compact side kept the sketch")
	}

	// compact ← sketch must not resurrect sketching either.
	var c Accumulator
	d := Accumulator{Sketch: true}
	d.Push(3)
	c.Merge(&d)
	if c.Sketch || c.digest != nil {
		t.Fatal("merge into compact accumulator kept a digest")
	}
	if c.N() != 1 || c.Mean() != 3 {
		t.Fatal("moments lost in compact ← sketch merge")
	}

	// sketch ← sketch keeps answering, and the empty-destination path
	// deep-copies: growing the source later must not leak into the copy.
	var e Accumulator
	e.Sketch = true
	f := Accumulator{Sketch: true}
	for i := 0; i < 100; i++ {
		f.Push(float64(i))
	}
	e.Merge(&f)
	before := e.Percentile(0.5)
	for i := 0; i < 100; i++ {
		f.Push(1e6)
	}
	if got := e.Percentile(0.5); got != before {
		t.Fatalf("merge aliased the source digest: %v then %v", before, got)
	}
	g := Accumulator{Sketch: true}
	for i := 100; i < 200; i++ {
		g.Push(float64(i))
	}
	e.Merge(&g)
	if e.N() != 200 {
		t.Fatalf("merged N = %d", e.N())
	}
	if got := e.Percentile(0.5); relErr(got, 99.5) > 0.02 {
		t.Fatalf("merged sketch median = %v, want ~99.5", got)
	}

	// Retain wins when both backends are on: percentiles are exact.
	h := Accumulator{Retain: true, Sketch: true}
	for _, x := range []float64{9, 1, 5} {
		h.Push(x)
	}
	if got := h.Percentile(0.5); got != 5 {
		t.Fatalf("Retain+Sketch median = %v, want exact 5", got)
	}
}

// TestCI95HalfBoundary pins the Student-t table edge: dof 30 is the last
// table entry (2.042), dof 31 falls back to the normal value 1.96.
func TestCI95HalfBoundary(t *testing.T) {
	std := func(xs []float64) float64 {
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		return math.Sqrt(m2 / float64(len(xs)-1))
	}
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i % 3)
		}
		return xs
	}
	at := func(n int, tcrit float64) {
		t.Helper()
		xs := mk(n)
		want := tcrit * std(xs) / math.Sqrt(float64(n))
		if got := CI95Half(xs); !almostEqual(got, want, 1e-9) {
			t.Errorf("n=%d: CI %v, want %v (t=%v)", n, got, want, tcrit)
		}
	}
	at(31, 2.042) // dof 30: last table entry
	at(32, 1.96)  // dof 31: normal approximation
}
