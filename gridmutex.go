// Package gridmutex is a Go implementation of the hierarchical composition
// of token-based mutual exclusion algorithms for grid applications
// described in Sopena, Legond-Aubry, Arantes and Sens, "A Composition
// Approach to Mutual Exclusion Algorithms for Grid Applications"
// (ICPP 2007).
//
// A grid is a federation of clusters: links inside a cluster are fast,
// links between clusters are slow and heterogeneous. The composition runs
// one classical mutual exclusion algorithm inside every cluster and a
// second one among per-cluster coordinators. New builds any two of
// Martin's ring, Naimi-Trehel's tree, Suzuki-Kasami's broadcast, Raymond's
// tree, a centralized server or the permission-based Ricart-Agrawala at two
// levels. The runtime-adaptive inter algorithm and hierarchies deeper than
// two levels run on the simulator (gridsim -adaptive, the adaptive and
// gridscale figures).
//
// The package offers two entry points:
//
//   - New builds a live deployment (goroutines and channels, or UDP
//     sockets) and hands out blocking Lock/Unlock handles — the library a
//     grid application would link against.
//   - ReproduceFigure / ReproduceAll regenerate the paper's evaluation
//     figures on the deterministic discrete-event simulator. Each figure
//     is one row of the experiment catalogue in internal/harness; runs
//     fan out over GOMAXPROCS goroutines, and the output is byte-identical
//     for every count.
package gridmutex

import (
	"context"
	"fmt"
	"time"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/core"
	"gridmutex/internal/livenet"
	"gridmutex/internal/mutex"
	"gridmutex/internal/topology"
)

// Algorithms lists the names of the algorithms available at either
// hierarchy level (the registry of internal/algorithms).
func Algorithms() []string {
	return algorithms.Names()
}

// Transport selects how a live deployment communicates.
type Transport uint8

const (
	// InProcess runs every node as a goroutine with channel links and
	// modeled latencies — the default.
	InProcess Transport = iota
	// UDP runs every node on its own loopback UDP socket, mirroring the
	// paper's implementation.
	UDP
)

// Config describes a live grid deployment.
type Config struct {
	// Clusters and AppsPerCluster shape the grid; each cluster gets one
	// extra coordinator process. Defaults: 3 clusters of 4.
	Clusters, AppsPerCluster int
	// Intra and Inter name the algorithms of the two levels (defaults:
	// "naimi" and "naimi" — see Algorithms).
	Intra, Inter string
	// LocalRTT and RemoteRTT set link latencies (defaults 0: instant).
	// Grid5000 overrides them with the paper's measured matrix (requires
	// Clusters == 9 or 0).
	LocalRTT, RemoteRTT time.Duration
	Grid5000            bool
	// LatencyScale (≥ 0) divides modeled latencies (InProcess transport
	// only), letting examples run the Grid'5000 delays faster than real time.
	LatencyScale int
	// Transport selects the runtime.
	Transport Transport
	// UDPBasePort fixes the UDP port scheme (base+processID, every port ≤
	// 65535); zero binds ephemeral ports.
	UDPBasePort int
}

func (c *Config) fill() error {
	if c.Clusters == 0 {
		c.Clusters = 3
	}
	if c.AppsPerCluster == 0 {
		c.AppsPerCluster = 4
	}
	if c.Intra == "" {
		c.Intra = "naimi"
	}
	if c.Inter == "" {
		c.Inter = "naimi"
	}
	if c.Grid5000 && c.Clusters != 9 {
		return fmt.Errorf("gridmutex: Grid5000 topology has 9 clusters, not %d", c.Clusters)
	}
	if c.Clusters < 1 || c.AppsPerCluster < 1 {
		return fmt.Errorf("gridmutex: need at least 1 cluster and 1 app per cluster")
	}
	if c.LatencyScale < 0 {
		return fmt.Errorf("gridmutex: LatencyScale %d is negative, want >= 0", c.LatencyScale)
	}
	if c.UDPBasePort < 0 {
		return fmt.Errorf("gridmutex: UDPBasePort %d is negative, want >= 0", c.UDPBasePort)
	}
	if last := c.UDPBasePort + c.Clusters*(c.AppsPerCluster+1) - 1; c.UDPBasePort > 0 && last > 65535 {
		return fmt.Errorf("gridmutex: UDPBasePort %d puts the last process at port %d, above 65535", c.UDPBasePort, last)
	}
	return nil
}

// Mutex is the application-facing distributed lock of one process.
type Mutex struct {
	h *livenet.Handle
}

// Lock acquires the grid-wide critical section, blocking until granted or
// ctx is cancelled.
func (m *Mutex) Lock(ctx context.Context) error { return m.h.Lock(ctx) }

// Unlock releases the critical section.
func (m *Mutex) Unlock() { m.h.Unlock() }

// Grid is a running live deployment.
type Grid struct {
	cfg     Config
	topo    *topology.Grid
	handles *livenet.Handles
	apps    []core.App
	closeFn func()
}

// New builds and starts a live deployment.
func New(cfg Config) (*Grid, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	var topo *topology.Grid
	if cfg.Grid5000 {
		topo = topology.Grid5000(cfg.AppsPerCluster + 1)
	} else {
		local, remote := cfg.LocalRTT, cfg.RemoteRTT
		topo = topology.Uniform(cfg.Clusters, cfg.AppsPerCluster+1, local, remote)
	}

	var fabric mutex.Fabric
	var poster livenet.Poster
	var closeFn func()
	switch cfg.Transport {
	case InProcess:
		n := livenet.New(livenet.Options{
			Latency: func(a, b int) time.Duration { return topo.OneWay(a, b) },
			Scale:   cfg.LatencyScale,
		})
		fabric, poster, closeFn = n, n, n.Close
	case UDP:
		n := livenet.NewUDP("", cfg.UDPBasePort)
		fabric, poster, closeFn = n, n, n.Close
	default:
		return nil, fmt.Errorf("gridmutex: unknown transport %d", cfg.Transport)
	}

	hs := livenet.NewHandles(poster)
	d, err := core.BuildComposed(fabric, topo, core.Spec{Intra: cfg.Intra, Inter: cfg.Inter}, hs.Callbacks)
	if err != nil {
		closeFn()
		return nil, err
	}
	hs.Bind(d.Apps)
	return &Grid{cfg: cfg, topo: topo, handles: hs, apps: d.Apps, closeFn: closeFn}, nil
}

// Apps returns the number of application processes in the grid.
func (g *Grid) Apps() int { return len(g.apps) }

// Mutex returns the distributed lock handle of the i-th application
// process (0 <= i < Apps()).
func (g *Grid) Mutex(i int) *Mutex {
	if i < 0 || i >= len(g.apps) {
		panic(fmt.Sprintf("gridmutex: app index %d out of %d", i, len(g.apps)))
	}
	return &Mutex{h: g.handles.Get(g.apps[i].ID)}
}

// ClusterOf returns the cluster index hosting the i-th application
// process.
func (g *Grid) ClusterOf(i int) int { return g.apps[i].Cluster }

// Close shuts the deployment down. Locks must not be held or requested
// when Close is called.
func (g *Grid) Close() { g.closeFn() }
