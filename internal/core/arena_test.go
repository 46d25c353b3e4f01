package core

import (
	"strings"
	"testing"
	"time"

	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
	"gridmutex/internal/simnet"
	"gridmutex/internal/topology"
)

// TestArenaReservedExactly: both builders reserve exactly the processes
// they create — nothing spare, and never one short (which panics).
func TestArenaReservedExactly(t *testing.T) {
	grid := topology.Uniform(5, 3, time.Millisecond, 16*time.Millisecond)
	flat, err := BuildFlat(simnet.New(des.New(), grid, simnet.Options{}), grid, "naimi", nil)
	if err != nil {
		t.Fatal(err)
	}
	// 5 clusters grouped 2+2+1: 15 nodes + 3 region coordinators.
	tree, err := BuildMultiLevel(simnet.New(des.New(), grid, simnet.Options{}), grid,
		[]string{"naimi", "suzuki", "naimi"}, []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		d    *Deployment
		want int
	}{
		{"BuildFlat", flat, 15},
		{"BuildMultiLevel", tree, 18},
	} {
		if len(c.d.arena) != c.want || cap(c.d.arena) != c.want {
			t.Errorf("%s: arena len %d cap %d, want both %d", c.name, len(c.d.arena), cap(c.d.arena), c.want)
		}
	}
}

// TestBuildersSizeAppsAndProcsOnce: every builder makes Apps and Procs at
// their final length, so neither leaves a chain of outgrown arrays behind.
func TestBuildersSizeAppsAndProcsOnce(t *testing.T) {
	grid := topology.Uniform(8, 3, time.Millisecond, 16*time.Millisecond)
	for _, c := range []struct {
		name  string
		build func(net *simnet.Network) (*Deployment, error)
		procs int
	}{
		{"BuildFlat", func(net *simnet.Network) (*Deployment, error) {
			return BuildFlat(net, grid, "naimi", nil)
		}, 24},
		{"BuildComposed", func(net *simnet.Network) (*Deployment, error) {
			return BuildComposed(net, grid, Spec{"naimi", "suzuki"}, nil)
		}, 24},
		// 8 clusters grouped 2 by 2 into 4 regions, and those into 2.
		{"BuildMultiLevel", func(net *simnet.Network) (*Deployment, error) {
			return BuildMultiLevel(net, grid, []string{"naimi", "martin", "suzuki", "naimi"}, []int{2, 2}, nil)
		}, 30},
	} {
		d, err := c.build(simnet.New(des.New(), grid, simnet.Options{}))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(d.Procs) != c.procs || cap(d.Procs) != len(d.Procs) {
			t.Errorf("%s: Procs len %d cap %d, want both %d", c.name, len(d.Procs), cap(d.Procs), c.procs)
		}
		if cap(d.Apps) != len(d.Apps) {
			t.Errorf("%s: Apps len %d cap %d, want the same", c.name, len(d.Apps), cap(d.Apps))
		}
	}
}

// nopFabric wires nothing, so a build's allocations are the builder's and
// the instances' own.
type nopFabric struct{}

func (nopFabric) Endpoint(mutex.ID) mutex.Env             { return nopEnv{} }
func (nopFabric) RegisterAt(mutex.ID, int, mutex.Handler) {}

// TestBuildFlatAllocsPerProcess: every instance of a flat deployment
// validates the whole member list, and BuildFlat's list is ascending, so
// the check allocates nothing and each process past the first costs as
// many allocations at N = 180 as at N = 10. A sorted copy per instance,
// which leaves the stack past 16 members, would add one per process.
func TestBuildFlatAllocsPerProcess(t *testing.T) {
	allocs := func(n int) float64 {
		grid := topology.Single(n, time.Millisecond)
		return testing.AllocsPerRun(20, func() {
			if _, err := BuildFlat(nopFabric{}, grid, "naimi", nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(1)
	perProcess := func(n int) float64 { return (allocs(n) - one) / float64(n-1) }
	if small, large := perProcess(10), perProcess(180); large > small {
		t.Errorf("BuildFlat allocates %.3f times per process at N = 180, %.3f at N = 10; want no growth", large, small)
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	net := simnet.New(des.New(), topology.Single(2, time.Millisecond), simnet.Options{})
	d := &Deployment{}
	d.Reserve(1)
	d.Register(net, 0, 0)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "process 1 exceeds the 1 reserved") {
			t.Errorf("second process in a one-slot arena: recovered %q, want the under-count panic", msg)
		}
	}()
	d.Register(net, 1, 1)
}
