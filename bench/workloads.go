package main

import (
	"bytes"
	"context"
	"embed"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gridmutex"
	"gridmutex/internal/harness"
)

//go:embed testdata/*.golden
var goldens embed.FS

const (
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 9
	// minUnits is the fewest measured units a run reports a median of.
	minUnits = 3
	// gridScaleAlpha is the grid-scale sweep's critical-section length.
	gridScaleAlpha = 10 * time.Millisecond
)

// fig4aScale is the paper's section 4.1 shape — 9x20 Grid'5000, 100 CS per
// process, the ten-rho axis — with the repetitions cut from 10 to 2 so that
// one sweep is a 3 s unit and a run reports the median of several. N, the
// rho axis and the CS count are the paper's.
func fig4aScale(o opts) harness.Scale {
	s := harness.PaperScale()
	if o.smoke {
		s = harness.QuickScale()
	}
	s.Repetitions = 2
	s.BaseSeed = o.seed
	return s
}

// gridScaleSize is the tree's node count and the critical sections per
// application process.
func gridScaleSize(o opts) (n, csPerProcess int) {
	if o.smoke {
		return 1000, 3
	}
	return 100_000, 3
}

// recoveryShape is QuickScale grown to 6 clusters x 8 applications, 50 CS of
// 10 ms, one low and one high rho, two heartbeat periods, one repetition per
// unit. (The paper-scale recovery shape aborts on the harness's event cap;
// see README.md.)
func recoveryShape(o opts) (harness.RecoveryParams, harness.Scale) {
	s := harness.QuickScale()
	s.Repetitions = 1
	s.BaseSeed = o.seed
	if o.smoke {
		s.Rhos = []float64{12}
		return harness.RecoveryParams{Periods: []time.Duration{20 * time.Millisecond}}, s
	}
	s.Clusters, s.AppsPerCluster = 6, 8
	s.CSPerProcess = 50
	s.Alpha = 10 * time.Millisecond
	s.Rhos = []float64{24, 192}
	return harness.RecoveryParams{Periods: []time.Duration{20 * time.Millisecond, 80 * time.Millisecond}}, s
}

// The live deployment is 3 clusters of 4 applications.
const liveClusters, liveApps = 3, 4

// liveCounts are the hand-offs of the warm-up, which is part of set-up, and
// of one measured unit.
func liveCounts(o opts) (warm, unit int) {
	if o.smoke {
		return 100, 200
	}
	return 2000, 10_000
}

// warmUp runs one quick-scale fig4a sweep so that the first timed unit does
// not pay for page faults, lazy initialisation and a cold rng seed cache.
func warmUp() error {
	_, err := harness.Run(harness.CompositionSystems(), harness.QuickScale(), nil)
	return err
}

// measureUnits repeats unit until the run has measured for o.seconds, and at
// least minUnits times. A unit reports its wall time and the critical
// sections granted in it. The first unit runs on the run's seed — the one the
// goldens are for — and each later one on a seed derived from it, so that a
// run's medians are over several draws of the workload and depend less on
// how much work one particular seed happens to make.
func measureUnits(o opts, out *outcome, unit func(seed int64) (wall float64, grants int64)) {
	start := time.Now()
	for n := 0; n < minUnits || time.Since(start).Seconds() < o.seconds; n++ {
		seed := o.seed
		if n > 0 {
			seed = int64(splitmix64(uint64(o.seed)+uint64(n)*0x9e3779b97f4a7c15) >> 1)
		}
		wall, grants := unit(seed)
		out.walls = append(out.walls, wall)
		out.rates = append(out.rates, float64(grants)/wall)
		o.logf("unit %d: %.4f s, %d critical sections", n, wall, grants)
	}
}

// expectGrants counts a unit's critical sections against their expectation:
// missing ones are failed operations.
func (out *outcome) expectGrants(what string, got, atLeast, atMost int64) {
	out.attempted += atMost
	if got < atLeast || got > atMost {
		out.problemf("%s: %d critical sections granted, want %d..%d", what, got, atLeast, atMost)
		if got < atLeast {
			out.failed += atLeast - got
		}
	}
}

// checkGolden compares text with the committed golden of the workload, byte
// for byte. Goldens exist for seed 1 at full size; other runs rely on the
// invariant checks.
func checkGolden(o opts, out *outcome, name, text string) {
	if o.smoke || o.seed != 1 {
		return
	}
	path := "testdata/" + name + ".golden"
	if o.update {
		if err := os.WriteFile(filepath.Join("bench", path), []byte(text), 0o644); err != nil {
			out.problemf("update golden: %v", err)
		}
		return
	}
	want, err := goldens.ReadFile(path)
	if err != nil {
		out.problemf("golden %s: %v", name, err)
		return
	}
	if !bytes.Equal(want, []byte(text)) {
		out.problemf("golden %s: output differs from bench/%s", name, path)
		o.logf("--- got\n%s--- want\n%s", text, want)
	}
}

func runFig4a(o opts) (*outcome, error) {
	systems := harness.CompositionSystems()
	scale := fig4aScale(o)
	out := &outcome{}
	if err := warmUp(); err != nil {
		return nil, err
	}
	// One set-up builds every (system, rho) stack of repetition 0.
	rhos := len(scale.Rhos)
	err := setUp(out, len(systems)*rhos, func(c int) (*simStack, error) {
		rho := scale.Rhos[c%rhos]
		return buildFigureStack(systems[c/rhos], scale, rho, runSeed(scale.BaseSeed, rho, 0), nil)
	})
	if err != nil {
		return nil, err
	}
	perCell := int64(scale.Repetitions * scale.N() * scale.CSPerProcess)
	measureUnits(o, out, func(seed int64) (float64, int64) {
		scale.BaseSeed = seed
		start := time.Now()
		res, err := harness.Run(systems, scale, nil)
		wall := time.Since(start).Seconds()
		if err != nil {
			out.problemf("harness.Run: %v", err)
			out.attempted += perCell * int64(len(systems)*len(scale.Rhos))
			out.failed += perCell * int64(len(systems)*len(scale.Rhos))
			return wall, 0
		}
		var grants, events int64
		for i := range res.Points {
			p := &res.Points[i]
			out.expectGrants(fmt.Sprintf("%s rho=%g", p.System, p.Rho), p.Grants, perCell, perCell)
			grants += p.Grants
			events += p.Events
		}
		if seed == o.seed {
			o.logf("events=%d events_per_sec=%.0f", events, float64(events)/wall)
			const title = "fig4a-paper"
			checkGolden(o, out, "fig4a-paper",
				res.Table(harness.ObtainingMean, title)+res.Chart(harness.ObtainingMean, title)+
					res.Table(harness.InterMsgs, title)+res.Chart(harness.InterMsgs, title))
		}
		return wall, grants
	})
	return out, nil
}

func runGridScale(o opts) (*outcome, error) {
	n, cs := gridScaleSize(o)
	out := &outcome{}
	if err := warmUp(); err != nil {
		return nil, err
	}
	// Every unit builds the tree, the routing state and the deployment and
	// then drives them; the harness times the drive, so the rest of the call
	// is that unit's set-up.
	measureUnits(o, out, func(seed int64) (float64, int64) {
		start := time.Now()
		res, err := harness.RunGridScale([]int{n}, cs, gridScaleAlpha, seed, nil)
		total := time.Since(start).Seconds()
		if err != nil {
			out.problemf("harness.RunGridScale: %v", err)
			out.attempted++
			out.failed++
			return total, 0
		}
		p := res.Points[0]
		wall := p.Mem.WallMS / 1e3
		out.setups = append(out.setups, total-wall)
		out.bytes = append(out.bytes, p.Mem.BytesPerProc)
		want := int64(p.Apps * cs)
		out.expectGrants("gridscale", p.Grants, want, want)
		if seed == o.seed {
			o.logf("events=%d events_per_sec=%.0f procs=%d", p.Events, p.Mem.EventsPerSec, p.Mem.Procs)
			checkGolden(o, out, "gridscale-1e5", res.Table("gridscale-1e5"))
		}
		return wall, p.Grants
	})
	return out, nil
}

// recoveryCell is one (heartbeat period, rho) cell of the recovery sweep.
type recoveryCell struct {
	period time.Duration
	rho    float64
}

// recoveryCells lists the sweep's cells in the harness's order.
func recoveryCells(params harness.RecoveryParams, scale harness.Scale) (cells []recoveryCell) {
	for _, period := range params.Periods {
		for _, rho := range scale.Rhos {
			cells = append(cells, recoveryCell{period, rho})
		}
	}
	return cells
}

func runRecovery(o opts) (*outcome, error) {
	params, scale := recoveryShape(o)
	out := &outcome{}
	if err := warmUp(); err != nil {
		return nil, err
	}
	cells := recoveryCells(params, scale)
	// A 48-process stack builds in a quarter of a millisecond: one set-up
	// builds every cell's stack eight times over, so that the sample is long
	// enough to time.
	err := setUp(out, 8*len(cells), func(c int) (*simStack, error) {
		period, rho := cells[c%len(cells)].period, cells[c%len(cells)].rho
		return buildRecoveryStack(scale, period, rho, runSeed(scale.BaseSeed^int64(period), rho, 0), nil)
	})
	if err != nil {
		return nil, err
	}
	// One application crashes per run and forfeits its remaining critical
	// sections, so a cell's grants lie within one process's worth of the
	// full count.
	perCell := int64(scale.Repetitions * scale.N() * scale.CSPerProcess)
	slack := int64(scale.Repetitions * scale.CSPerProcess)
	measureUnits(o, out, func(seed int64) (float64, int64) {
		scale.BaseSeed = seed
		start := time.Now()
		res, err := harness.RunRecovery(params, scale, nil)
		wall := time.Since(start).Seconds()
		if err != nil {
			out.problemf("harness.RunRecovery: %v", err)
			out.attempted += perCell * int64(len(cells))
			out.failed += perCell * int64(len(cells))
			return wall, 0
		}
		var grants int64
		for _, p := range res.Points {
			out.expectGrants(fmt.Sprintf("recovery period=%v rho=%g", p.Period, p.Rho), p.Grants, perCell-slack, perCell)
			grants += p.Grants
		}
		if seed == o.seed {
			checkGolden(o, out, "recovery-6x8", res.Table("recovery-6x8"))
		}
		return wall, grants
	})
	return out, nil
}

// locker is what a hand-off client needs of an application's mutex; both
// gridmutex.Mutex and livenet.Handle provide it.
type locker interface {
	Lock(ctx context.Context) error
	Unlock()
}

// handoff is the live workload's closed loop of concurrency 1: one client
// goroutine locks and unlocks on behalf of one application at a time, moving
// to the next cluster on every critical section, so each one migrates the
// token across coordinators and the messages per critical section are fixed.
// The application within the cluster comes from the seeded stream.
type handoff struct {
	mutexAt func(app int) locker
	rng     *rand.Rand
	next    int
	// entered and exited are the unsynchronised in-CS counter pair.
	entered, exited int64
	failed          int64
}

func newHandoff(seed int64, mutexAt func(app int) locker) *handoff {
	return &handoff{mutexAt: mutexAt, rng: rand.New(rand.NewSource(seed))}
}

// run performs n hand-offs and returns their wall time; lat, when non-nil,
// receives each Lock's call-to-return latency in microseconds. A Lock that
// errors or outlasts two seconds is a failed operation.
func (h *handoff) run(n int, lat *[]float64) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		cluster := h.next % liveClusters
		h.next++
		m := h.mutexAt(cluster*liveApps + h.rng.Intn(liveApps))
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		t0 := time.Now()
		err := m.Lock(ctx)
		if lat != nil {
			*lat = append(*lat, float64(time.Since(t0))/1e3)
		}
		cancel()
		if err != nil {
			h.failed++
			continue
		}
		h.entered++
		if h.entered != h.exited+1 {
			h.failed++
		}
		h.exited++
		m.Unlock()
	}
	return time.Since(start).Seconds()
}

// verify folds the hand-offs made so far into the outcome.
func (h *handoff) verify(out *outcome) {
	out.attempted += int64(h.next)
	out.failed += h.failed
	if h.failed > 0 || h.entered != int64(h.next) || h.exited != h.entered {
		out.problemf("live: %d of %d hand-offs failed (entered %d, exited %d)", h.failed, h.next, h.entered, h.exited)
	}
}

func runLive(o opts) (*outcome, error) {
	warm, unit := liveCounts(o)
	out := &outcome{}
	var g *gridmutex.Grid
	var h *handoff
	for i := 0; i < setupReps; i++ {
		if g != nil {
			h.verify(out)
			g.Close()
			g, h = nil, nil
		}
		before := heapLive()
		start := time.Now()
		var err error
		g, err = gridmutex.New(gridmutex.Config{Clusters: liveClusters, AppsPerCluster: liveApps, Transport: gridmutex.UDP})
		if err != nil {
			return nil, err
		}
		built := time.Since(start)
		// The deployment's own heap, before traffic adds buffers whose size
		// depends on goroutine timing.
		if after := heapLive(); after > before {
			out.bytes = append(out.bytes, float64(after-before)/float64(liveClusters*(liveApps+1)))
		}
		grid := g
		h = newHandoff(o.seed, func(app int) locker { return grid.Mutex(app) })
		out.setups = append(out.setups, built.Seconds()+h.run(warm, nil))
	}
	defer g.Close()
	// Every Lock of the measured pass is timed (two clock reads against a
	// 50 us hand-off), so the latencies a run prints are those of the units
	// behind its wall_s and cs_per_sec.
	var lat []float64
	measureUnits(o, out, func(int64) (float64, int64) {
		return h.run(unit, &lat), int64(unit)
	})
	h.verify(out)
	p50, p99 := lockPercentiles(lat)
	o.logf("lock_p50_us=%.2f lock_p99_us=%.2f n=%d", p50, p99, len(lat))
	return out, nil
}

// lockPercentiles sorts Lock latencies and returns their median and 99th
// percentile.
func lockPercentiles(lat []float64) (p50, p99 float64) {
	sort.Float64s(lat)
	return lat[len(lat)/2], lat[len(lat)*99/100]
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM); where
// /proc is missing it falls back to the memory the Go runtime obtained.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := strings.Cut(string(status), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
