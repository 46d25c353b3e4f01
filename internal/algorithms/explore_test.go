package algorithms_test

import (
	"math/rand"
	"testing"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/explore"
	"gridmutex/internal/mutex"
)

// TestExploreAlgorithms drives a 3-process instance of every registered
// algorithm through systematic schedule exploration: every bounded
// interleaving of message deliveries and application requests/releases
// must stay free of safety, liveness, and terminal-state violations. The
// space is explored to exhaustion, with no schedule cut at MaxSteps — a
// run that stopped early would pass on whatever it happened to reach.
func TestExploreAlgorithms(t *testing.T) {
	// Requests per app are sized so every space exhausts within seconds
	// (1,246 schedules for naimi up to 41,845 for ricart-agrawala):
	// raymond's tree collapses many interleavings so it gets an extra round.
	requests := map[string]int{"raymond": 3}
	for _, name := range algorithms.Names() {
		t.Run(name, func(t *testing.T) {
			factory, err := algorithms.Factory(name)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if algorithms.TokenBased(name) {
				want = 1
			}
			reqs := requests[name]
			if reqs == 0 {
				reqs = 2
			}
			opts := explore.Options{
				RequestsPerApp:    reqs,
				MaxSteps:          128,
				CheckTokenHolders: true,
				WantTokenHolders:  want,
			}
			res, err := explore.ExploreDFS(explore.FlatBuilder(factory, 3), opts)
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

// TestExploreAlgorithmsRandom complements the exhaustive DFS with random
// walks at 2 requests per process: different schedules, same
// zero-violation requirement, terminal assertions included wherever a walk
// ends.
func TestExploreAlgorithmsRandom(t *testing.T) {
	for _, name := range algorithms.Names() {
		t.Run(name, func(t *testing.T) {
			factory, err := algorithms.Factory(name)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if algorithms.TokenBased(name) {
				want = 1
			}
			opts := explore.Options{
				RequestsPerApp:    2,
				MaxSteps:          96,
				CheckTokenHolders: true,
				WantTokenHolders:  want,
			}
			rng := rand.New(rand.NewSource(1))
			terminal := 0
			for walk := 0; walk < 100; walk++ {
				sched, v, err := randomWalk(explore.FlatBuilder(factory, 3), []mutex.ID{0, 1, 2}, opts, rng)
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
			t.Logf("100 walks, %d terminal", terminal)
		})
	}
}
