package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/topology"
)

// testScale is QuickScale with slightly more repetitions so shape
// assertions are stable.
func testScale() Scale {
	s := QuickScale()
	s.Repetitions = 3
	return s
}

func runComposition(t *testing.T) *Result {
	t.Helper()
	res, err := Run(CompositionSystems(), testScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compositionResult is shared across shape tests (the run is the expensive
// part).
var compositionResult *Result

func composition(t *testing.T) *Result {
	t.Helper()
	if compositionResult == nil {
		compositionResult = runComposition(t)
	}
	return compositionResult
}

func TestRunProducesAllCells(t *testing.T) {
	res := composition(t)
	scale := testScale()
	if want := len(CompositionSystems()) * len(scale.Rhos); len(res.Points) != want {
		t.Fatalf("%d points, want %d", len(res.Points), want)
	}
	for _, p := range res.Points {
		wantGrants := int64(scale.N() * scale.CSPerProcess * scale.Repetitions)
		if p.Grants != wantGrants {
			t.Errorf("%s rho=%g: %d grants, want %d", p.System, p.Rho, p.Grants, wantGrants)
		}
		if p.Obtaining.Mean < 0 {
			t.Errorf("%s rho=%g: negative obtaining mean", p.System, p.Rho)
		}
	}
}

// TestShapeObtainingDecreasesWithRho: figure 4(a)'s dominant trend — less
// concurrency, shorter waits — must hold for every system.
func TestShapeObtainingDecreasesWithRho(t *testing.T) {
	res := composition(t)
	scale := testScale()
	first, last := scale.Rhos[0], scale.Rhos[len(scale.Rhos)-1]
	for _, s := range res.Systems {
		lo := res.Point(s.Name, first)
		hi := res.Point(s.Name, last)
		if lo == nil || hi == nil {
			t.Fatalf("missing cells for %s", s.Name)
		}
		if hi.Obtaining.Mean >= lo.Obtaining.Mean {
			t.Errorf("%s: obtaining did not fall with rho: %.2fms at rho=%g vs %.2fms at rho=%g",
				s.Name, lo.Obtaining.Mean, first, hi.Obtaining.Mean, last)
		}
	}
}

// TestShapeCompositionReducesInterMessages: figure 4(b) — at low ρ every
// composition sends far fewer inter-cluster messages than the original
// algorithm.
func TestShapeCompositionReducesInterMessages(t *testing.T) {
	res := composition(t)
	rho := testScale().Rhos[0]
	flat := res.Point("Naimi (original)", rho)
	for _, name := range []string{"Naimi-Naimi", "Naimi-Martin", "Naimi-Suzuki"} {
		p := res.Point(name, rho)
		if p.InterMsgsPerCS >= flat.InterMsgsPerCS {
			t.Errorf("%s sends %.2f inter msgs/CS, not below original's %.2f",
				name, p.InterMsgsPerCS, flat.InterMsgsPerCS)
		}
	}
}

// TestShapeFlatNaimiInterMessagesConstant: figure 4(b) — the original
// algorithm's inter-cluster message count is independent of ρ (requests are
// routed obliviously to location).
func TestShapeFlatNaimiInterMessagesConstant(t *testing.T) {
	res := composition(t)
	min, max := 1e18, 0.0
	for _, rho := range testScale().Rhos {
		v := res.Point("Naimi (original)", rho).InterMsgsPerCS
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max > 2*min {
		t.Errorf("original Naimi inter msgs/CS varies too much with rho: [%.2f, %.2f]", min, max)
	}
}

// TestShapeComposedInterMessagesGrowWithRho: figure 4(b) — with less
// concurrency coordinators batch fewer local requests per inter request,
// so inter traffic per CS rises.
func TestShapeComposedInterMessagesGrowWithRho(t *testing.T) {
	res := composition(t)
	scale := testScale()
	first, last := scale.Rhos[0], scale.Rhos[len(scale.Rhos)-1]
	for _, name := range []string{"Naimi-Naimi", "Naimi-Martin", "Naimi-Suzuki"} {
		lo := res.Point(name, first).InterMsgsPerCS
		hi := res.Point(name, last).InterMsgsPerCS
		if hi <= lo {
			t.Errorf("%s: inter msgs/CS did not grow with rho (%.3f -> %.3f)", name, lo, hi)
		}
	}
}

// TestShapeHighParallelismOrdering: section 4.3 — for ρ >= 3N the
// obtaining time orders Suzuki < Naimi <= Martin as inter algorithm
// (T_req dominates: 1 hop vs log(C) hops vs C/2 hops).
func TestShapeHighParallelismOrdering(t *testing.T) {
	res := composition(t)
	scale := testScale()
	rho := scale.Rhos[len(scale.Rhos)-1]
	suzuki := res.Point("Naimi-Suzuki", rho).Obtaining.Mean
	martin := res.Point("Naimi-Martin", rho).Obtaining.Mean
	if suzuki >= martin {
		t.Errorf("at rho=%g Suzuki-inter (%.2fms) should beat Martin-inter (%.2fms)", rho, suzuki, martin)
	}
}

// TestShapeLowParallelismMartinCheapest: section 4.7 — when almost all
// clusters are requesting, Martin's inter algorithm sends the fewest
// inter-cluster messages.
func TestShapeLowParallelismMartinCheapest(t *testing.T) {
	res := composition(t)
	rho := testScale().Rhos[0]
	martin := res.Point("Naimi-Martin", rho).InterMsgsPerCS
	suzuki := res.Point("Naimi-Suzuki", rho).InterMsgsPerCS
	if martin >= suzuki {
		t.Errorf("at rho=%g Martin-inter (%.2f msgs/CS) should undercut Suzuki-inter (%.2f)",
			rho, martin, suzuki)
	}
}

// TestShapeIntraChoiceMinor: figure 6(a) — the intra algorithm barely
// moves the obtaining time (the inter algorithm dominates).
func TestShapeIntraChoiceMinor(t *testing.T) {
	res, err := Run(intraSystems, testScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rho := range testScale().Rhos {
		min, max := 1e18, 0.0
		for _, s := range res.Systems {
			v := res.Point(s.Name, rho).Obtaining.Mean
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if max > 1.6*min {
			t.Errorf("rho=%g: intra choice changes obtaining time by more than 60%% (%.2f..%.2f ms)",
				rho, min, max)
		}
	}
}

// TestScalabilityCompositionScalesBetter: section 4.7 — per-CS messages of
// Suzuki-Suzuki grow much slower with cluster count than original Suzuki.
func TestScalabilityCompositionScalesBetter(t *testing.T) {
	scale := testScale()
	scale.Repetitions = 2
	clusters := []int{2, 6}
	systems := []System{Flat("suzuki"), Composed("suzuki", "suzuki"), Flat("naimi"), Composed("naimi", "naimi")}
	res, err := runScalability(systems, scale, clusters, nil)
	if err != nil {
		t.Fatal(err)
	}
	growth := func(system string) float64 {
		lo := res.point(system, clusters[0]).TotalMsgsPerCS
		hi := res.point(system, clusters[1]).TotalMsgsPerCS
		return hi / lo
	}
	if g, f := growth("Suzuki-Suzuki"), growth("Suzuki (original)"); g >= f {
		t.Errorf("Suzuki-Suzuki grew %.2fx, original %.2fx — composition should scale better", g, f)
	}
}

func TestTableRendering(t *testing.T) {
	res := composition(t)
	for _, m := range []Metric{ObtainingMean, ObtainingStd, ObtainingRelStd, InterMsgs, TotalMsgs} {
		tab := res.Table(m, "Figure test")
		if !strings.Contains(tab, "Figure test") || !strings.Contains(tab, "rho") {
			t.Errorf("table for %v lacks header:\n%s", m, tab)
		}
		for _, s := range res.Systems {
			if !strings.Contains(tab, s.Name) {
				t.Errorf("table for %v lacks system %s", m, s.Name)
			}
		}
		lines := strings.Split(strings.TrimSpace(tab), "\n")
		if want := 3 + len(testScale().Rhos); len(lines) != want {
			t.Errorf("table for %v has %d lines, want %d", m, len(lines), want)
		}
	}
}

func TestMetricString(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range []Metric{ObtainingMean, ObtainingStd, ObtainingRelStd, InterMsgs, TotalMsgs, Metric(99)} {
		s := m.String()
		if s == "" || seen[s] {
			t.Errorf("metric %d has bad or duplicate name %q", m, s)
		}
		seen[s] = true
	}
}

func TestFigure3Table(t *testing.T) {
	tab := figure3Table()
	for _, want := range []string{"orsay", "bordeaux", "95.282", "98.398", "0.001"} {
		if !strings.Contains(tab, want) {
			t.Errorf("figure 3 table missing %q", want)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	a := runComposition(t)
	b := runComposition(t)
	for i := range a.Points {
		pa, pb := a.Points[i], b.Points[i]
		if pa.Obtaining.Mean != pb.Obtaining.Mean || pa.InterMsgsPerCS != pb.InterMsgsPerCS {
			t.Fatalf("nondeterministic cell %s rho=%g", pa.System, pa.Rho)
		}
	}

	// Total DES events behind fig4a at quick scale. The figure goldens pin
	// rendered means; this pins the work under them, so an event added,
	// dropped or duplicated that the averages absorb still shows.
	res, err := Run(CompositionSystems(), QuickScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var events int64
	for _, p := range res.Points {
		events += p.Events
	}
	if events != 58542 {
		t.Errorf("fig4a quick scale processed %d DES events, want 58542", events)
	}
}

func TestGridValidation(t *testing.T) {
	scale := testScale()
	scale.UseGrid5000 = true
	scale.Clusters = 4
	if _, err := Run([]System{Flat("naimi")}, scale, nil); err == nil {
		t.Fatal("grid5000 with wrong cluster count accepted")
	}
}

func TestRunProgressCallback(t *testing.T) {
	scale := testScale()
	scale.Rhos = scale.Rhos[:1]
	scale.Repetitions = 1
	var lines []string
	if _, err := Run([]System{Flat("central")}, scale, func(l string) { lines = append(lines, l) }); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("progress fired %d times, want 1", len(lines))
	}
	// Every line ends in the cell's deterministic costs.
	for _, want := range []string{"  events=", " key moves/event, high-water ", " closures/grant"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("progress line %q lacks %q", lines[0], want)
		}
	}
}

func TestPaperScaleShape(t *testing.T) {
	s := PaperScale()
	if s.N() != 180 {
		t.Errorf("paper N = %d, want 180", s.N())
	}
	if s.Alpha != 10*time.Millisecond || s.CSPerProcess != 100 || !s.UseGrid5000 {
		t.Errorf("paper scale mismatch: %+v", s)
	}
	// The rho sweep must cover all three regimes of N = 180.
	var low, mid, high bool
	for _, rho := range s.Rhos {
		switch {
		case rho <= 180:
			low = true
		case rho <= 540:
			mid = true
		default:
			high = true
		}
	}
	if !low || !mid || !high {
		t.Errorf("rho sweep %v does not cover all three parallelism regimes", s.Rhos)
	}
}

func TestSystemNaming(t *testing.T) {
	if got := Composed("naimi", "martin").Name; got != "Naimi-Martin" {
		t.Errorf("Composed name = %q", got)
	}
	if got := Flat("suzuki").Name; got != "Suzuki (original)" {
		t.Errorf("Flat name = %q", got)
	}
}

// TestAdaptivePhasedExperiment: the adaptive composition must complete the
// phased workload, commit switches, and stay in the same league as the
// static compositions.
func TestAdaptivePhasedExperiment(t *testing.T) {
	scale := testScale()
	scale.CSPerProcess = 25
	scale.Phases = AdaptivePhases(scale)
	var lines []string
	res, err := Run(AdaptiveSystems(), scale, func(l string) { lines = append(lines, l) })
	if err != nil {
		t.Fatal(err)
	}
	var adaptivePt *Point
	worst := 0.0
	for i := range res.Points {
		p := &res.Points[i]
		if p.System == "Naimi-Adaptive" {
			adaptivePt = p
			continue
		}
		if p.Obtaining.Mean > worst {
			worst = p.Obtaining.Mean
		}
		if p.Switches != 0 {
			t.Errorf("static system %s reports %d switches", p.System, p.Switches)
		}
	}
	if adaptivePt == nil {
		t.Fatal("no adaptive point")
	}
	if adaptivePt.Switches == 0 {
		t.Error("adaptive composition never switched during the phased workload")
	}
	// The progress line shows the switch count.
	if want := fmt.Sprintf("switches=%d ", adaptivePt.Switches); len(lines) != 4 || !strings.Contains(lines[3], want) {
		t.Errorf("progress lines %q, want the adaptive one (last of 4) to show %q", lines, want)
	}
	if adaptivePt.Obtaining.Mean > 1.5*worst {
		t.Errorf("adaptive obtaining %.2fms far above worst static %.2fms",
			adaptivePt.Obtaining.Mean, worst)
	}
	tab := res.PhasedTable("Adaptive ablation")
	if !strings.Contains(tab, "Naimi-Adaptive") || !strings.Contains(tab, "switches") {
		t.Errorf("phased table malformed:\n%s", tab)
	}
}

// TestRunObeysPhases: under a phase schedule the schedule sets ρ, so Run
// yields one Point per system, at Rho 0, however many Rhos the scale lists.
func TestRunObeysPhases(t *testing.T) {
	scale := testScale()
	scale.Rhos = scale.Rhos[:3]
	scale.CSPerProcess, scale.Repetitions = 5, 1
	scale.Phases = AdaptivePhases(scale)
	res, err := Run([]System{Composed("naimi", "naimi"), Adaptive("naimi", "naimi")}, scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points for 2 systems under a phase schedule, want 2", len(res.Points))
	}
	for i, p := range res.Points {
		if p.System != res.Systems[i].Name || p.Rho != 0 {
			t.Errorf("point %d is %s at rho=%g, want %s at 0", i, p.System, p.Rho, res.Systems[i].Name)
		}
	}
}

func TestScalabilityTableRendering(t *testing.T) {
	scale := testScale()
	scale.Repetitions = 1
	clusters := []int{2, 3}
	res, err := runScalability([]System{Flat("central"), Composed("central", "central")}, scale, clusters, func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	tab := res.table("Scalability")
	if !strings.Contains(tab, "clusters") || !strings.Contains(tab, "Central (original)") {
		t.Fatalf("table malformed:\n%s", tab)
	}
	if res.point("Central (original)", 2) == nil {
		t.Fatal("missing point")
	}
	if res.point("Central (original)", 99) != nil || res.point("nope", 2) != nil {
		t.Fatal("phantom point")
	}
}

func TestResultPointMisses(t *testing.T) {
	res := composition(t)
	if res.Point("nope", testScale().Rhos[0]) != nil {
		t.Fatal("phantom system point")
	}
	if res.Point("Naimi-Naimi", -1) != nil {
		t.Fatal("phantom rho point")
	}
	// A missing cell renders as '-'.
	partial := &Result{Systems: res.Systems, Scale: testScale()}
	tab := partial.Table(ObtainingMean, "empty")
	if !strings.Contains(tab, "-") {
		t.Fatal("missing cells not rendered")
	}
}

func TestTitleHelper(t *testing.T) {
	if title("") != "" {
		t.Error("empty title")
	}
	if title("Naimi") != "Naimi" {
		t.Error("already-capitalized name changed")
	}
}

func TestRunOnceErrorPaths(t *testing.T) {
	scale := testScale()
	scale.Rhos = []float64{1}
	scale.Repetitions = 1
	// Unknown flat algorithm surfaces through Run.
	if _, err := Run([]System{{Name: "x", Flat: "bogus"}}, scale, nil); err == nil {
		t.Error("unknown flat accepted")
	}
	// Unknown composed algorithm.
	if _, err := Run([]System{{Name: "x", Spec: core.Spec{Intra: "bogus", Inter: "naimi"}}}, scale, nil); err == nil {
		t.Error("unknown intra accepted")
	}
	// Unknown adaptive intra.
	if _, err := Run([]System{{Name: "x", Spec: core.Spec{Intra: "bogus", Inter: "naimi"}, AdaptiveInter: true}}, scale, nil); err == nil {
		t.Error("unknown adaptive intra accepted")
	}
	// Unknown adaptive initial inter.
	if _, err := Run([]System{{Name: "x", Spec: core.Spec{Intra: "naimi", Inter: "bogus"}, AdaptiveInter: true}}, scale, nil); err == nil {
		t.Error("unknown adaptive inter accepted")
	}
	// Invalid workload (negative rho).
	scale.Rhos = []float64{-1}
	if _, err := Run([]System{Flat("naimi")}, scale, nil); err == nil {
		t.Error("negative rho accepted")
	}
}

func TestGridDefaultsForZeroLatencies(t *testing.T) {
	scale := testScale()
	scale.LocalRTT, scale.RemoteRTT = 0, 0 // zero is instant, not an error
	scale.Rhos = []float64{5}
	scale.Repetitions = 1
	if _, err := Run([]System{Flat("central")}, scale, nil); err != nil {
		t.Fatal(err)
	}
	// Zero means "instant"; a negative RTT means nothing and must not
	// quietly become instant too.
	scale.LocalRTT = -5 * time.Millisecond
	if _, err := Run([]System{Flat("central")}, scale, nil); err == nil || !strings.Contains(err.Error(), "negative RTT") {
		t.Fatalf("negative LocalRTT: %v, want a negative-RTT error", err)
	}
}

// TestSystemContradictionsAreErrors: Flat ignores Spec, as System documents;
// anything else that contradicts Flat is the run kernel's error, not a
// field that silently loses.
func TestSystemContradictionsAreErrors(t *testing.T) {
	scale := testScale()
	scale.Rhos = []float64{5}
	scale.Repetitions = 1
	sys := Flat("central")
	sys.Spec = core.Spec{Intra: "naimi", Inter: "naimi"}
	if _, err := Run([]System{sys}, scale, nil); err != nil {
		t.Fatalf("Flat with a Spec: %v, want Spec ignored", err)
	}
	sys.AdaptiveInter = true
	if _, err := Run([]System{sys}, scale, nil); err == nil || !strings.Contains(err.Error(), "flat excludes adaptive") {
		t.Fatalf("Flat with AdaptiveInter: %v, want a \"flat excludes adaptive\" error", err)
	}
}

// TestFairnessMetric: every system's Jain index is in (0,1], all processes
// eventually progress, and the metric renders in tables.
func TestFairnessMetric(t *testing.T) {
	res := composition(t)
	for _, p := range res.Points {
		if p.Fairness <= 0 || p.Fairness > 1 {
			t.Errorf("%s rho=%g: fairness %v out of (0,1]", p.System, p.Rho, p.Fairness)
		}
		// The workload gives every process the same number of CS, so
		// per-process mean waits should be in the same ballpark: Jain
		// well above the 1/N lower bound.
		if p.Fairness < 0.5 {
			t.Errorf("%s rho=%g: fairness %v suspiciously low", p.System, p.Rho, p.Fairness)
		}
	}
	tab := res.Table(Fairness, "Fairness")
	if !strings.Contains(tab, "Jain") {
		t.Fatalf("fairness table header:\n%s", tab)
	}
}

func TestChartRendering(t *testing.T) {
	res := composition(t)
	chart := res.Chart(ObtainingMean, "Figure 4(a)")
	if chart == "" {
		t.Fatal("empty chart")
	}
	for _, want := range []string{"Figure 4(a)", "(rho)", "* = Naimi (original)", "o = Naimi-Naimi"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q:\n%s", want, chart)
		}
	}
	// Every series mark must appear in the plot area.
	for _, mark := range []string{"*", "o", "+", "x"} {
		if strings.Count(chart, mark) < len(testScale().Rhos)/2 {
			t.Errorf("mark %q underrepresented", mark)
		}
	}
	// Log scaling kicks in for wide ranges (obtaining spans >100x at
	// quick scale? if not, no [log y] — just ensure it renders for the
	// message metric too).
	c2 := res.Chart(InterMsgs, "Figure 4(b)")
	if !strings.Contains(c2, "Figure 4(b)") {
		t.Fatal("message chart failed")
	}
	// Degenerate cases.
	empty := &Result{Systems: res.Systems, Scale: Scale{}}
	if empty.Chart(ObtainingMean, "x") != "" {
		t.Fatal("chart of empty result")
	}
}

// TestChartMonotonicPlacement: in figure 4(a) the obtaining time falls
// with rho, so the first column's mark must be on a higher row (smaller
// index = nearer the top) than the last column's.
func TestChartMonotonicPlacement(t *testing.T) {
	res := composition(t)
	chart := res.Chart(ObtainingMean, "fig")
	lines := strings.Split(chart, "\n")
	var plot []string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			plot = append(plot, l[strings.Index(l, "|")+1:])
		}
	}
	firstCol, lastCol := 2, (len(testScale().Rhos)-1)*chartColsPerRho+2
	rowOf := func(col int) int {
		for i, l := range plot {
			if col < len(l) && l[col] != ' ' {
				return i
			}
		}
		return -1
	}
	rf, rl := rowOf(firstCol), rowOf(lastCol)
	if rf == -1 || rl == -1 {
		t.Fatalf("marks not found in columns %d/%d:\n%s", firstCol, lastCol, chart)
	}
	if rf >= rl {
		t.Errorf("low-rho mark (row %d) should be above high-rho mark (row %d)", rf, rl)
	}
}

// TestLocalBiasReducesHandoffs: the Bertier-style local-first policy
// batches more local work per inter acquisition, so under contention the
// number of inter handoffs falls while safety and liveness hold.
func TestLocalBiasReducesHandoffs(t *testing.T) {
	scale := testScale()
	scale.Rhos = []float64{4} // saturated: every cluster always has locals
	scale.CSPerProcess = 20
	res, err := Run([]System{
		Composed("naimi", "naimi"),
		Biased("naimi", "naimi", 4),
	}, scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain := res.Point("Naimi-Naimi", 4)
	biased := res.Point("Naimi-Naimi (bias 4)", 4)
	if biased.BiasRounds == 0 {
		t.Fatal("bias never kicked in")
	}
	if plain.BiasRounds != 0 {
		t.Fatal("plain composition reports bias rounds")
	}
	if biased.Handoffs >= plain.Handoffs {
		t.Errorf("bias did not reduce handoffs: %d vs %d", biased.Handoffs, plain.Handoffs)
	}
	// Fewer handoffs means fewer inter messages per CS.
	if biased.InterMsgsPerCS >= plain.InterMsgsPerCS {
		t.Errorf("bias did not reduce inter traffic: %.3f vs %.3f",
			biased.InterMsgsPerCS, plain.InterMsgsPerCS)
	}
}

// TestCustomMatrixScale: an operator-supplied RTT matrix drives the run.
func TestCustomMatrixScale(t *testing.T) {
	m, err := topology.ParseMatrixSpec(strings.NewReader(`
from a b
a 0.1 10
b 10 0.1
`))
	if err != nil {
		t.Fatal(err)
	}
	scale := testScale()
	scale.CustomMatrix = m
	scale.AppsPerCluster = 3
	scale.Rhos = []float64{8}
	scale.Repetitions = 1
	if scale.N() != 6 {
		t.Fatalf("N = %d, want 6 (2 clusters x 3 apps)", scale.N())
	}
	res, err := Run([]System{Flat("naimi"), Composed("naimi", "naimi")}, scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Grants != int64(scale.N()*scale.CSPerProcess) {
			t.Errorf("%s: %d grants", p.System, p.Grants)
		}
	}
}

// TestLossyReliableRun: the harness can run experiments over a lossy
// fabric when the reliable layer is enabled.
func TestLossyReliableRun(t *testing.T) {
	scale := testScale()
	scale.Rhos = []float64{10}
	scale.Repetitions = 1
	scale.Loss = 0.1
	scale.Reliable = true
	res, err := Run([]System{Composed("naimi", "suzuki")}, scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &res.Points[0]
	if p.Grants != int64(scale.N()*scale.CSPerProcess) {
		t.Fatalf("grants %d", p.Grants)
	}
	// Retransmissions inflate traffic: per-CS messages exceed the
	// loss-free run's.
	clean := testScale()
	clean.Rhos = []float64{10}
	clean.Repetitions = 1
	resClean, err := Run([]System{Composed("naimi", "suzuki")}, clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalMsgsPerCS <= resClean.Points[0].TotalMsgsPerCS {
		t.Errorf("lossy+reliable traffic %.2f not above clean %.2f",
			p.TotalMsgsPerCS, resClean.Points[0].TotalMsgsPerCS)
	}
}

// TestLocalityExperiment: with the workload skewed toward cluster 0, the
// composition serves the hot cluster's requests much faster than the
// original algorithm relative to the rest of the grid, because the inter
// token parks in the busy cluster.
func TestLocalityExperiment(t *testing.T) {
	scale := testScale()
	scale.CSPerProcess = 25
	scale.Repetitions = 2
	// High parallelism plus an 8x hot cluster: remote requests are rare,
	// so the composition parks the inter token in the busy cluster.
	scale.Rhos, scale.HotCluster, scale.HotSkew = []float64{100}, 0, 8
	res, err := Run([]System{Flat("naimi"), Composed("naimi", "naimi")}, scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	rho := 100.0
	flat := res.Point("Naimi (original)", rho)
	comp := res.Point("Naimi-Naimi", rho)
	if len(flat.PerCluster) != 3 || len(comp.PerCluster) != 3 {
		t.Fatalf("per-cluster breakdown missing: %d/%d", len(flat.PerCluster), len(comp.PerCluster))
	}
	// The skew shows in volume: the hot cluster produced the same number
	// of grants per process but requested them in a third of the time —
	// check it got a per-cluster series at all and that the composition
	// serves it absolutely faster than the original algorithm does.
	// (Relative hot/overall ratios are NOT a reliable discriminator:
	// flat Naimi-Trehel's path reversal also adapts to locality.)
	if comp.PerCluster[0].Mean >= flat.PerCluster[0].Mean {
		t.Errorf("composition does not serve the hot cluster faster: %.2f vs %.2f ms",
			comp.PerCluster[0].Mean, flat.PerCluster[0].Mean)
	}
	tab := res.localityTable("Locality")
	if !strings.Contains(tab, "0*") || !strings.Contains(tab, "Naimi-Naimi") {
		t.Fatalf("locality table malformed:\n%s", tab)
	}
}
