package core

import (
	"strings"
	"testing"
	"time"

	"gridmutex/internal/des"
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

func TestArenaExhaustionPanics(t *testing.T) {
	net := simnet.New(des.New(), topology.Single(2, time.Millisecond), simnet.Options{})
	d := &Deployment{}
	d.reserve(1)
	d.newProcess(0, net.Endpoint(0))
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "process 1 exceeds the 1 reserved") {
			t.Errorf("second process in a one-slot arena: recovered %q, want the under-count panic", msg)
		}
	}()
	d.newProcess(1, net.Endpoint(1))
}
