package gridmutex

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLiveGridDefaults(t *testing.T) {
	g, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Apps() != 12 {
		t.Fatalf("Apps = %d, want 12", g.Apps())
	}
	m := g.Mutex(0)
	if err := m.Lock(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.Unlock()
}

func TestLiveGridMutualExclusion(t *testing.T) {
	g, err := New(Config{
		Clusters: 2, AppsPerCluster: 3,
		Intra: "suzuki", Inter: "martin",
		LocalRTT: time.Millisecond, RemoteRTT: 10 * time.Millisecond, LatencyScale: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < g.Apps(); i++ {
		m := g.Mutex(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if err := m.Lock(context.Background()); err != nil {
					t.Error(err)
					return
				}
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if want := g.Apps() * 10; counter != want {
		t.Fatalf("counter = %d, want %d", counter, want)
	}
}

func TestLiveGridOverUDP(t *testing.T) {
	g, err := New(Config{Clusters: 2, AppsPerCluster: 2, Transport: UDP})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var wg sync.WaitGroup
	for i := 0; i < g.Apps(); i++ {
		m := g.Mutex(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := m.Lock(ctx); err != nil {
					t.Error(err)
					cancel()
					return
				}
				cancel()
				m.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestGrid5000Topology(t *testing.T) {
	g, err := New(Config{Clusters: 9, AppsPerCluster: 1, Grid5000: true, LatencyScale: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Apps() != 9 {
		t.Fatalf("Apps = %d", g.Apps())
	}
	if g.ClusterOf(0) == g.ClusterOf(1) {
		t.Fatal("apps 0 and 1 should be in different clusters (1 app per cluster)")
	}
	m := g.Mutex(8)
	if err := m.Lock(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.Unlock()
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Grid5000: true, Clusters: 4, AppsPerCluster: 1}); err == nil {
		t.Error("Grid5000 with 4 clusters accepted")
	}
	if _, err := New(Config{Intra: "bogus", Clusters: 2, AppsPerCluster: 1}); err == nil {
		t.Error("unknown intra accepted")
	}
	if _, err := New(Config{Transport: Transport(9), Clusters: 2, AppsPerCluster: 1}); err == nil {
		t.Error("unknown transport accepted")
	}
}

// TestConfigRejectsOutOfRange: a port or scale outside its range is an
// error naming the field and the bound, not a panic from a socket bind
// or a silent fallback.
func TestConfigRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"last port past 65535", Config{Clusters: 3, AppsPerCluster: 4, Transport: UDP, UDPBasePort: 65530}, "UDPBasePort 65530 puts the last process at port 65544, above 65535"},
		{"negative base port", Config{Transport: UDP, UDPBasePort: -5}, "UDPBasePort -5 is negative"},
		{"negative latency scale", Config{LatencyScale: -3}, "LatencyScale -3 is negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(tc.cfg)
			if err == nil {
				g.Close()
				t.Fatalf("New(%+v) returned no error", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

func TestMutexIndexPanics(t *testing.T) {
	g, err := New(Config{Clusters: 2, AppsPerCluster: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Mutex index did not panic")
		}
	}()
	g.Mutex(99)
}

func TestAlgorithmsList(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 6 {
		t.Fatalf("Algorithms = %v", algs)
	}
}

func TestFiguresAndDescriptions(t *testing.T) {
	figs := Figures()
	want := []string{"adaptive", "bias", "fig3", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "gridscale", "locality", "partition", "recovery", "scale"}
	if len(figs) != len(want) {
		t.Fatalf("Figures = %v", figs)
	}
	for i := range want {
		if figs[i] != want[i] {
			t.Fatalf("Figures = %v, want %v", figs, want)
		}
	}
	for _, f := range figs {
		d, err := DescribeFigure(f)
		if err != nil || d == "" {
			t.Errorf("DescribeFigure(%s): %q, %v", f, d, err)
		}
	}
	if _, err := DescribeFigure("nope"); err == nil {
		t.Error("unknown figure described")
	}
}

func TestReproduceFigureQuick(t *testing.T) {
	tab, err := ReproduceFigure("fig4a", ScaleQuick, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab, "Figure 4(a)") || !strings.Contains(tab, "Naimi-Martin") {
		t.Fatalf("table malformed:\n%s", tab)
	}
	if _, err := ReproduceFigure("nope", ScaleQuick, nil); err == nil {
		t.Fatal("unknown figure reproduced")
	}
}

func TestReproduceAllQuick(t *testing.T) {
	tabs, err := ReproduceAll(ScaleQuick, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Figures() {
		if tabs[f] == "" {
			t.Errorf("no table for %s", f)
		}
	}
	if !strings.Contains(tabs["adaptive"], "Naimi-Adaptive") {
		t.Error("adaptive table missing the adaptive system")
	}
	if !strings.Contains(tabs["fig3"], "95.282") {
		t.Error("fig3 table missing latency data")
	}
}

// TestReproduceAllRunsSharedExperimentsOnce: figures plotting metrics of one
// experiment share its runs, so a quick ReproduceAll reports each cell once:
// adaptive 4, bias 6, fig4a-5b 28, fig6a/6b 21, gridscale 2, locality 2,
// partition 6, recovery 6 and scale 20 progress lines. Without the sharing
// 4b, 5a, 5b and 6b each rerun theirs: 200 lines. Naimi-Naimi cells recur
// across fig4a, fig6a and bias on the same seeds, so only the systems the
// shared experiments alone run must not repeat a line.
func TestReproduceAllRunsSharedExperimentsOnce(t *testing.T) {
	var lines []string
	if _, err := ReproduceAll(ScaleQuick, func(l string) { lines = append(lines, l) }); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 95 {
		t.Errorf("%d progress lines, want 95", len(lines))
	}
	seen := map[string]bool{}
	for _, l := range lines {
		cell, _, _ := strings.Cut(l, "  events=")
		if !strings.Contains(cell, " rho=") {
			continue
		}
		switch strings.Fields(cell)[0] {
		case "Naimi-Martin", "Naimi-Suzuki", "Martin-Naimi", "Suzuki-Naimi":
			if seen[cell] {
				t.Errorf("progress line %q repeats: a shared experiment ran twice", cell)
			}
			seen[cell] = true
		}
	}
	if len(seen) != 28 {
		t.Errorf("%d distinct cells of the shared experiments' own systems, want 28", len(seen))
	}
}
