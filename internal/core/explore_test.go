package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/explore"
	"gridmutex/internal/topology"
)

// compositionBuilder wires a two-cluster composed deployment onto the
// explorer's hand-stepped world: 2 clusters of 2 nodes each, so nodes 0
// and 2 host coordinators and nodes 1 and 3 are the drivable application
// processes. Coordinator automaton state and the per-level instances
// hidden behind each process dispatcher are exposed to the fingerprint
// cache through probes, so pruning cannot conflate states that differ
// only inside the hierarchy.
func compositionBuilder(spec core.Spec) explore.Builder {
	return func() (*explore.System, error) {
		sys := explore.NewSystem()
		grid := topology.Uniform(2, 2, time.Millisecond, 10*time.Millisecond)
		d, err := core.BuildComposed(sys.World, grid, spec, sys.Callbacks)
		if err != nil {
			return nil, err
		}
		for _, a := range d.Apps {
			sys.AddApp(a.ID, a.Instance)
		}
		for _, c := range d.Coordinators {
			c := c
			sys.AddProbe(func() string {
				return fmt.Sprintf("c%d=%s", c.ID(), c.State())
			})
		}
		for id, p := range d.Procs {
			id, p := id, p
			sys.AddProbe(func() string {
				var b strings.Builder
				fmt.Fprintf(&b, "p%d=", id)
				for lvl := core.Level(0); ; lvl++ {
					inst := p.Instance(lvl)
					if inst == nil {
						break
					}
					fmt.Fprintf(&b, "%d%t%t,", inst.State(), inst.HoldsToken(), inst.HasPending())
				}
				return b.String()
			})
		}
		return sys, nil
	}
}

// TestExploreComposition explores every bounded interleaving of a
// two-level Naimi-Martin composition: application requests funnel through
// the coordinators' intra/inter bridging, and no ordering of the
// envelope deliveries may violate mutual exclusion or leave a request
// stuck. The space is explored to exhaustion (479 schedules, 560 states),
// with no schedule cut at MaxSteps.
func TestExploreComposition(t *testing.T) {
	b := compositionBuilder(core.Spec{Intra: "naimi", Inter: "martin"})
	opts := explore.Options{
		RequestsPerApp: 4,
		MaxSteps:       160,
	}
	res, err := explore.ExploreDFS(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("violation in %d schedules: %v\nschedule: %s\n%s",
			res.Schedules, res.Counterexample.Violations,
			res.Counterexample.Schedule, res.Counterexample.JSON())
	}
	if !res.Exhausted || res.Truncated != 0 {
		t.Fatalf("space not exhausted: %d schedules, %d truncated, exhausted=%v",
			res.Schedules, res.Truncated, res.Exhausted)
	}
	t.Logf("%d schedules, %d states, %d steps, %d pruned, %d truncated, exhausted=%v",
		res.Schedules, res.States, res.Steps, res.Pruned, res.Truncated, res.Exhausted)
}

// TestExploreCompositionRandom PCT-samples a second composition (different
// intra and inter algorithms) as a cheap diversity complement to the DFS.
func TestExploreCompositionRandom(t *testing.T) {
	b := compositionBuilder(core.Spec{Intra: "suzuki", Inter: "naimi"})
	res, err := explore.ExploreRandom(b, explore.Options{
		RequestsPerApp: 2,
		MaxSteps:       128,
		MaxSchedules:   100,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("violation: %v\nschedule: %s",
			res.Counterexample.Violations, res.Counterexample.Schedule)
	}
}
