package algorithms_test

import (
	"testing"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/explore"
)

// TestExploreAlgorithms drives a 3-process instance of every registered
// algorithm through systematic schedule exploration: every bounded
// interleaving of message deliveries and application requests/releases
// must stay free of safety, liveness, and terminal-state violations. The
// space is explored to exhaustion, with no schedule cut at MaxSteps — a
// run that stopped early would pass on whatever it happened to reach.
func TestExploreAlgorithms(t *testing.T) {
	// Requests per app are sized so every space exhausts within seconds
	// (1,246 schedules for naimi up to 73,027 for lamport): raymond's tree
	// collapses many interleavings so it gets an extra round, while
	// lamport's double broadcast per entry explodes past two million
	// schedules at two rounds, so it gets one.
	requests := map[string]int{"raymond": 3, "lamport": 1}
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

// TestExploreAlgorithmsRandom samples each algorithm's schedule space with
// the PCT-style randomized scheduler as a complement to the bounded DFS:
// different schedules, same zero-violation requirement.
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
			res, err := explore.ExploreRandom(explore.FlatBuilder(factory, 3), explore.Options{
				RequestsPerApp:    2,
				MaxSteps:          96,
				MaxSchedules:      100,
				Seed:              1,
				CheckTokenHolders: true,
				WantTokenHolders:  want,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Counterexample != nil {
				t.Fatalf("violation: %v\nschedule: %s",
					res.Counterexample.Violations, res.Counterexample.Schedule)
			}
		})
	}
}
