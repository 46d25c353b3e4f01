// Command gridnode runs a live composed deployment over loopback UDP
// sockets — one socket per process, mirroring the paper's C/UDP
// implementation — and drives a lock/unlock workload through it, printing
// per-process grant counts and latency percentiles.
//
// SIGINT or SIGTERM shuts down gracefully: no new critical sections are
// admitted, in-flight lock requests drain to completion, sockets close
// cleanly, and partial results are reported. A second signal forces an
// immediate exit.
//
// Example:
//
//	gridnode -clusters 3 -apps 4 -intra naimi -inter suzuki -cs 50
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"gridmutex"
)

func main() { os.Exit(gridnode(os.Args[1:], os.Stdout, os.Stderr)) }

func gridnode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridnode", flag.ExitOnError)
	var (
		clusters = fs.Int("clusters", 3, "number of clusters")
		apps     = fs.Int("apps", 4, "application processes per cluster")
		intra    = fs.String("intra", "naimi", "intra-cluster algorithm")
		inter    = fs.String("inter", "naimi", "inter-cluster algorithm")
		cs       = fs.Int("cs", 25, "critical sections per process")
		holdUS   = fs.Int("hold", 200, "critical section hold time in microseconds")
		basePort = fs.Int("port", 0, "UDP base port (0 = ephemeral)")
		timeout  = fs.Duration("timeout", 2*time.Minute, "per-lock timeout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// gridmutex.Config reads a zero size as "use the default": a size
	// below 1 is refused here, before any socket opens, not replaced.
	for _, f := range []struct {
		name string
		v    int
	}{{"clusters", *clusters}, {"apps", *apps}, {"cs", *cs}} {
		if f.v < 1 {
			fmt.Fprintf(stderr, "gridnode: -%s %d: want at least 1\n", f.name, f.v)
			return 2
		}
	}
	// A timeout of 0 or less fails every Lock at once, after the sockets
	// are bound; a negative hold would run as none.
	switch {
	case *holdUS < 0:
		fmt.Fprintf(stderr, "gridnode: -hold %d: want at least 0\n", *holdUS)
		return 2
	case *timeout <= 0:
		fmt.Fprintf(stderr, "gridnode: -timeout %v: want more than 0\n", *timeout)
		return 2
	}

	g, err := gridmutex.New(gridmutex.Config{
		Clusters:       *clusters,
		AppsPerCluster: *apps,
		Intra:          *intra,
		Inter:          *inter,
		Transport:      gridmutex.UDP,
		UDPBasePort:    *basePort,
	})
	if err != nil {
		fmt.Fprintln(stderr, "gridnode:", err)
		return 1
	}

	fmt.Fprintf(stdout, "gridnode: %d clusters x %d apps over UDP, %s-%s, %d CS each\n",
		*clusters, *apps, *intra, *inter, *cs)

	// Graceful shutdown: the first SIGINT/SIGTERM stops workers from
	// admitting new critical sections; lock requests already submitted to
	// the composition drain normally (the token keeps circulating until
	// every queued requester has been served). A second signal aborts.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(stderr, "\ngridnode: %v: draining in-flight critical sections (signal again to force quit)\n", s)
		close(stop)
		s = <-sigc
		fmt.Fprintf(stderr, "gridnode: %v: forced exit\n", s)
		os.Exit(130)
	}()

	type result struct {
		app       int
		latencies []time.Duration
		err       error
	}
	results := make([]result, g.Apps())
	var wg sync.WaitGroup
	var mu sync.Mutex
	shared := 0 // protected by the distributed lock
	start := time.Now()

	for i := 0; i < g.Apps(); i++ {
		i := i
		m := g.Mutex(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := result{app: i}
			for k := 0; k < *cs; k++ {
				select {
				case <-stop:
					k = *cs // stop admitting new critical sections
					continue
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), *timeout)
				t0 := time.Now()
				if err := m.Lock(ctx); err != nil {
					cancel()
					r.err = fmt.Errorf("lock: %w", err)
					break
				}
				r.latencies = append(r.latencies, time.Since(t0))
				cancel()
				shared++ // safe: we hold the grid-wide lock
				if *holdUS > 0 {
					time.Sleep(time.Duration(*holdUS) * time.Microsecond)
				}
				m.Unlock()
			}
			mu.Lock()
			results[i] = r
			mu.Unlock()
		}()
	}
	wg.Wait()
	signal.Stop(sigc)
	elapsed := time.Since(start)

	// Sockets close before any exit below so the UDP ports free up even on
	// the failure paths.
	g.Close()

	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(stderr, "gridnode: app %d %v\n", r.app, r.err)
			return 1
		}
	}

	total := g.Apps() * *cs
	completed := 0
	for _, r := range results {
		completed += len(r.latencies)
	}
	if shared != completed {
		fmt.Fprintf(stderr, "gridnode: MUTUAL EXCLUSION VIOLATED: counter %d, want %d\n", shared, completed)
		return 1
	}

	if completed < total {
		fmt.Fprintf(stdout, "interrupted: completed %d of %d critical sections in %v; counter verified = %d\n",
			completed, total, elapsed.Round(time.Millisecond), shared)
	} else {
		fmt.Fprintf(stdout, "completed %d critical sections in %v (%.0f CS/s); counter verified = %d\n",
			total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), shared)
	}
	fmt.Fprintf(stdout, "%6s %8s %12s %12s %12s\n", "app", "cluster", "p50", "p95", "max")
	for _, r := range results {
		if len(r.latencies) == 0 {
			fmt.Fprintf(stdout, "%6d %8d %12s %12s %12s\n", r.app, g.ClusterOf(r.app), "-", "-", "-")
			continue
		}
		sort.Slice(r.latencies, func(a, b int) bool { return r.latencies[a] < r.latencies[b] })
		p := func(q float64) time.Duration {
			idx := int(q * float64(len(r.latencies)-1))
			return r.latencies[idx].Round(time.Microsecond)
		}
		fmt.Fprintf(stdout, "%6d %8d %12v %12v %12v\n", r.app, g.ClusterOf(r.app), p(0.5), p(0.95), p(1))
	}
	return 0
}
