package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/core"
	"gridmutex/internal/explore"
	"gridmutex/internal/mutex"
	"gridmutex/internal/topology"
)

// compositionBuilder wires a composed deployment onto the explorer's
// hand-stepped world: clusters of per nodes each, the first node of a
// cluster hosting its coordinator and the rest being the drivable
// application processes. Coordinator automaton state and the per-level
// instances hidden behind each process dispatcher are exposed to the
// fingerprint cache through probes, so pruning cannot conflate states that
// differ only inside the hierarchy.
func compositionBuilder(spec core.Spec, clusters, per int) explore.Builder {
	return func() (*explore.System, error) {
		sys := explore.NewSystem()
		grid := topology.Uniform(clusters, per, time.Millisecond, 10*time.Millisecond)
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

// TestExploreComposition explores every bounded interleaving of every
// ordered (intra, inter) pair of the registry on 2 clusters of 2 nodes:
// application requests funnel through the coordinators' intra/inter
// bridging, and no ordering of the envelope deliveries may violate mutual
// exclusion or leave a request stuck — the paper's claim that any two
// algorithms compose unmodified. Each space is explored to exhaustion,
// with no schedule cut at MaxSteps. Naimi-Martin keeps 4 requests per
// application (479 schedules, 560 states); every other pair takes 2. Two
// coordinators give the inter level little to reorder, so 2 x 2 barely
// tells inter algorithms apart; a 3-cluster world would.
func TestExploreComposition(t *testing.T) {
	for _, intra := range algorithms.Names() {
		for _, inter := range algorithms.Names() {
			t.Run(intra+"/"+inter, func(t *testing.T) {
				opts := explore.Options{RequestsPerApp: 2, MaxSteps: 160}
				if intra == "naimi" && inter == "martin" {
					opts.RequestsPerApp = 4
				}
				b := compositionBuilder(core.Spec{Intra: intra, Inter: inter}, 2, 2)
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
			})
		}
	}
}

// randomWalk draws one schedule of b at random through the public Replay:
// each step extends the schedule with a delivery on a link with a message
// in flight, or a request or release at one of nodes — the first of them,
// in rng's order, that replays. The walk ends at the first violation, at
// opts.MaxSteps, or where no extension replays: a terminal state, on which
// Replay has run the terminal assertions.
func randomWalk(b explore.Builder, nodes []mutex.ID, opts explore.Options, rng *rand.Rand) (explore.Schedule, []string, error) {
	var last *explore.System
	tap := func() (*explore.System, error) {
		s, err := b()
		last = s
		return s, err
	}
	var sched explore.Schedule
	v, err := explore.Replay(tap, sched, opts)
	for err == nil && len(v) == 0 && len(sched) < opts.MaxSteps {
		var cands []explore.Choice
		for _, m := range last.World.Inflight() {
			cands = append(cands, explore.Choice{Op: explore.OpDeliver, From: m.From, To: m.To})
		}
		for _, id := range nodes {
			cands = append(cands, explore.Choice{Op: explore.OpRequest, Node: id}, explore.Choice{Op: explore.OpRelease, Node: id})
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		extended := false
		for _, c := range cands {
			next := append(sched[:len(sched):len(sched)], c)
			if cv, cerr := explore.Replay(tap, next, opts); cerr == nil {
				sched, v, extended = next, cv, true
				break
			}
		}
		if !extended {
			break
		}
	}
	return sched, v, err
}

// TestExploreCompositionRandom complements the exhaustive 2 x 2 DFS of the
// Suzuki-Naimi composition with random walks on 3 clusters of 3 nodes, a
// grid TestExploreComposition does not explore: three coordinators give
// the inter level orderings that two cannot produce.
func TestExploreCompositionRandom(t *testing.T) {
	b := compositionBuilder(core.Spec{Intra: "suzuki", Inter: "naimi"}, 3, 3)
	nodes := []mutex.ID{0, 1, 2, 3, 4, 5, 6, 7, 8}
	opts := explore.Options{RequestsPerApp: 2, MaxSteps: 256}
	rng := rand.New(rand.NewSource(1))
	terminal := 0
	for walk := 0; walk < 50; walk++ {
		sched, v, err := randomWalk(b, nodes, opts, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) > 0 {
			t.Fatalf("violation: %v\nschedule: %s\n%s", v, sched, sched.JSON())
		}
		if len(sched) < opts.MaxSteps {
			terminal++
		}
	}
	if terminal == 0 {
		t.Fatal("no walk reached a terminal state within MaxSteps")
	}
	t.Logf("50 walks, %d terminal", terminal)
}
