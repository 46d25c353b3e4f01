package harness

// The grid-scale sweep makes memory a first-class scaling axis: it runs a
// k-level composition on synthetic hierarchical trees (topology.NewTree)
// while N sweeps whole decades, and reports both the deterministic
// simulation outcomes (grants, events, messages per CS) and the
// non-deterministic machine measurements (bytes per process, wall-clock
// throughput). The two kinds of output are kept strictly
// apart: Table renders only the deterministic columns, so committed
// figures stay byte-identical across machines, while the memory samples
// go to the progress line, to TestGridScalePaper's bytes-per-process
// ceiling and to the benchmark (bench's gridscale-1e5 workload).
//
// The point of the experiment is the memory model of DESIGN.md §14: with
// Naimi-Trehel at every level, latencies computed from the cluster model
// (no O(N²) table) and arena-backed process bookkeeping, bytes per process
// should stay near-flat while N grows from 10² to 10⁵.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"gridmutex/internal/des"
	"gridmutex/internal/run"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

// gridScaleLeaf is the nodes per leaf cluster of the sweep's trees: one
// coordinator plus gridScaleLeaf-1 application processes.
const gridScaleLeaf = 10

// The sweep's latency model: leaf clusters exchange messages at
// gridScaleLeafRTT, root crossings cost gridScaleRootRTT, and each level
// below the root halves the RTT down to gridScaleMinLevelRTT.
const (
	gridScaleLeafRTT     = time.Millisecond
	gridScaleRootRTT     = 32 * time.Millisecond
	gridScaleMinLevelRTT = 2 * time.Millisecond
)

// GridScaleMem is the machine-dependent measurement of one sweep point.
// Nothing in here is deterministic — it never enters figure text.
type GridScaleMem struct {
	// Procs is the denominator: every simulated process (applications,
	// cluster coordinators and intermediate bridges).
	Procs int
	// BytesPerProc is the settled live heap the deployment added, divided
	// by Procs: (live after build − live before build) / Procs, both ends
	// measured after a forced collection.
	BytesPerProc float64
	// BuildAllocPerProc and DriveAllocPerProc are the bytes allocated
	// (MemStats.TotalAlloc) while run.Build and Drive ran, divided by
	// Procs: what a run leaves for the collector, live or not. Under GOGC
	// 400 little of it is collected before a run ends.
	BuildAllocPerProc, DriveAllocPerProc float64
	// WallMS and EventsPerSec time the simulation pass alone (build
	// excluded).
	WallMS       float64
	EventsPerSec float64
}

// GridScalePoint is one cell of the grid-scale sweep. All fields except
// Mem are deterministic functions of (N, seed).
type GridScalePoint struct {
	// N is the total topology node count; Clusters and Levels describe
	// the tree and the composition depth run on it.
	N, Clusters, Levels int
	// Apps is the number of application processes (N minus one
	// coordinator node per cluster).
	Apps int
	// Grants counts critical sections entered; Events the DES events
	// processed.
	Grants, Events int64
	// TotalMsgsPerCS and InterMsgsPerCS are sent-message counts
	// normalized per critical section.
	TotalMsgsPerCS, InterMsgsPerCS float64
	// Queue is the event queue's counted work (excluded from Table).
	Queue des.QueueStats
	// Mem is the machine-dependent measurement (excluded from Table).
	Mem GridScaleMem
}

// GridScaleResult aggregates the sweep.
type GridScaleResult struct {
	Points []GridScalePoint
}

// gridScaleNs returns the swept N axis: two decades at quick scale, four
// at paper scale (the 10⁵ point is the grid-scale acceptance bar).
func gridScaleNs(paper bool) []int {
	if paper {
		return []int{100, 1_000, 10_000, 100_000}
	}
	return []int{100, 1_000}
}

// gridScaleTree derives the deterministic tree recipe for one sweep
// point: leaf clusters of gridScaleLeaf nodes, fan-outs of 10 from the
// root down (a lone remaining factor of 10 splits into 2×5 so every tree
// has at least two internal levels, i.e. every composition at least
// three algorithm levels), and per-level RTTs halving with depth. The
// returned group sizes align the composition hierarchy with the tree:
// level k+1 groups units by their tree parent at depth k.
func gridScaleTree(n int) (topology.TreeSpec, []int, error) {
	if n < 100 || n%gridScaleLeaf != 0 {
		return topology.TreeSpec{}, nil, fmt.Errorf("harness: grid-scale N %d must be a multiple of %d and at least 100", n, gridScaleLeaf)
	}
	clusters := n / gridScaleLeaf
	var fanouts []int
	for rest := clusters; rest > 1; {
		switch {
		case rest%10 == 0 && rest > 10:
			fanouts = append(fanouts, 10)
			rest /= 10
		case rest == 10 && len(fanouts) == 0:
			fanouts = append(fanouts, 2, 5)
			rest = 1
		default:
			fanouts = append(fanouts, rest)
			rest = 1
		}
	}
	if len(fanouts) < 2 {
		return topology.TreeSpec{}, nil, fmt.Errorf("harness: grid-scale N %d yields %d clusters; need at least two tree levels", n, clusters)
	}
	spec := topology.TreeSpec{
		Fanouts:  fanouts,
		LeafSize: gridScaleLeaf,
		LeafRTT:  gridScaleLeafRTT,
	}
	// Root crossings are slowest; each deeper level halves the RTT, with
	// a floor of gridScaleMinLevelRTT.
	rtt := gridScaleRootRTT
	for range fanouts {
		spec.LevelRTT = append(spec.LevelRTT, rtt)
		if rtt > gridScaleMinLevelRTT {
			rtt /= 2
		}
	}
	// BuildMultiLevel groups consecutive units, and consecutive tree
	// clusters share parents bottom-up, so the group sizes are the
	// fan-outs deepest-first, excluding the root (the top algorithm
	// level spans the root's children).
	groups := make([]int, 0, len(fanouts)-1)
	for i := len(fanouts) - 1; i >= 1; i-- {
		groups = append(groups, fanouts[i])
	}
	return spec, groups, nil
}

// RunGridScale sweeps N over ns, running one seeded simulation per point
// (single repetitions: the sweep measures scaling shape and machine
// footprint, not statistical aggregates). Points always run serially on
// the calling goroutine — concurrent runs would pollute each other's
// heap measurements. The deterministic fields of every point are a pure
// function of (N, seed); only Mem varies across machines.
func RunGridScale(ns []int, csPerProcess int, alpha time.Duration, seed int64, progress func(string)) (*GridScaleResult, error) {
	res := &GridScaleResult{}
	for _, n := range ns {
		p, err := runGridScaleOnce(n, csPerProcess, alpha, seed)
		if err != nil {
			return nil, fmt.Errorf("harness: grid-scale N=%d: %w", n, err)
		}
		res.Points = append(res.Points, p)
		if progress != nil {
			progress(fmt.Sprintf("gridscale N=%-7d clusters=%-6d levels=%d  grants=%-7d  %7.0f B/proc (allocated %.1f build, %.1f drive)  %6.2f Mev/s  %s",
				p.N, p.Clusters, p.Levels, p.Grants, p.Mem.BytesPerProc, p.Mem.BuildAllocPerProc, p.Mem.DriveAllocPerProc,
				p.Mem.EventsPerSec/1e6, costs(p.Events, p.Grants, p.Queue)))
		}
	}
	return res, nil
}

// wallNow is the harness's one wall-clock read. Differences of its readings
// are the grid-scale sweep's simulation throughput (GridScaleMem) and never
// figure text.
func wallNow() time.Time {
	//lint:allow dettaint wall-clock throughput is what is measured; it never enters figure text (Table renders deterministic columns only)
	return time.Now()
}

func runGridScaleOnce(n, csPerProcess int, alpha time.Duration, seed int64) (GridScalePoint, error) {
	spec, groups, err := gridScaleTree(n)
	if err != nil {
		return GridScalePoint{}, err
	}
	g, err := topology.NewTree(spec)
	if err != nil {
		return GridScalePoint{}, err
	}
	levels := len(groups) + 2
	algs := make([]string, levels)
	for i := range algs {
		algs[i] = "naimi"
	}
	apps := g.NumClusters() * (gridScaleLeaf - 1)

	// Settle the heap and take the pre-build baseline; the build delta
	// over it is what the deployment itself costs.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// ρ = apps puts the mean idle time at apps·α: arrivals trickle in at
	// roughly the global service rate, so the sweep exercises a loaded
	// but not degenerate queue at every N.
	r, err := run.Build(run.Spec{
		Grid: g, Seed: seed, Jitter: 0.05,
		Workload: workload.Params{
			Alpha: alpha, Rho: float64(apps), Dist: workload.Exponential,
			CSPerProcess: csPerProcess,
		},
		System: run.System{Levels: algs, Groups: groups},
	})
	if err != nil {
		return GridScalePoint{}, err
	}

	runtime.GC()
	var built runtime.MemStats
	runtime.ReadMemStats(&built)

	start := wallNow()
	out := r.Drive()
	wall := wallNow().Sub(start)
	var driven runtime.MemStats
	runtime.ReadMemStats(&driven)
	if err := verify(out); err != nil {
		return GridScalePoint{}, err
	}

	p := GridScalePoint{
		N:        g.NumNodes(),
		Clusters: g.NumClusters(),
		Levels:   levels,
		Apps:     apps,
		Grants:   int64(out.Grants),
		Events:   int64(out.Events),
		Queue:    out.Queue,
	}
	counters := out.Counters
	if p.Grants > 0 {
		p.TotalMsgsPerCS = float64(counters.Messages) / float64(p.Grants)
		p.InterMsgsPerCS = float64(counters.InterMessages) / float64(p.Grants)
	}
	procs := len(out.Core.Procs)
	p.Mem = GridScaleMem{
		Procs:  procs,
		WallMS: float64(wall) / float64(time.Millisecond),
	}
	if procs > 0 {
		if built.HeapAlloc > before.HeapAlloc {
			p.Mem.BytesPerProc = float64(built.HeapAlloc-before.HeapAlloc) / float64(procs)
		}
		p.Mem.BuildAllocPerProc = float64(built.TotalAlloc-before.TotalAlloc) / float64(procs)
		p.Mem.DriveAllocPerProc = float64(driven.TotalAlloc-built.TotalAlloc) / float64(procs)
	}
	if wall > 0 {
		p.Mem.EventsPerSec = float64(p.Events) / wall.Seconds()
	}
	return p, nil
}

// Table renders the sweep's deterministic columns only: every cell is a
// pure function of (N, seed), so the figure reproduces byte for byte on
// any machine. Memory and throughput live in GridScalePoint.Mem and are
// deliberately absent here.
func (r *GridScaleResult) Table(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — k-level composition on synthetic trees, N swept over decades\n", title)
	fmt.Fprintf(&b, "%10s %10s %8s %10s %12s %10s %10s\n",
		"N", "clusters", "levels", "grants", "events", "msgs/CS", "inter/CS")
	for i := range r.Points {
		p := &r.Points[i]
		fmt.Fprintf(&b, "%10d %10d %8d %10d %12d %10.2f %10.2f\n",
			p.N, p.Clusters, p.Levels, p.Grants, p.Events, p.TotalMsgsPerCS, p.InterMsgsPerCS)
	}
	return b.String()
}
