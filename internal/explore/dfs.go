package explore

import "fmt"

// Result summarizes an exploration.
type Result struct {
	// Schedules is the number of distinct schedules executed.
	Schedules int
	// Steps is the total number of choice applications across all
	// schedules (replayed prefixes included).
	Steps int64
	// Exhausted reports that the bounded choice tree was fully explored.
	Exhausted bool
	// Truncated counts schedules cut at MaxSteps before reaching a
	// terminal state.
	Truncated int
	// Pruned counts extensions cut by the state-fingerprint cache.
	Pruned int
	// States is the number of distinct state fingerprints seen.
	States int
	// Counterexample is the first violating schedule found, or nil.
	Counterexample *Counterexample
}

// Counterexample is a violating schedule plus the violations it produces.
// Replaying the schedule against the same builder reproduces the
// violations byte-for-byte.
type Counterexample struct {
	Schedule   Schedule `json:"schedule"`
	Violations []string `json:"violations"`
}

// frame is one depth of the DFS: the choices enabled there and which is
// currently taken.
type frame struct {
	choices []Choice
	cur     int
}

// ExploreDFS enumerates the bounded choice tree of the system depth-first
// and stops at the first violation. The checker is stateless: every
// schedule rebuilds the system and replays the decided prefix (executions
// are deterministic, so the replay lands in the identical state). A cache
// of state fingerprints prunes extending a state already explored with at
// least as much remaining depth; see the fingerprint method for what the
// fingerprint does and does not capture.
func ExploreDFS(b Builder, opts Options) (*Result, error) {
	o := opts.fill()
	var stack []frame
	cache := make(map[string]int) // fingerprint -> max remaining depth explored
	res := &Result{}

	for res.Schedules < o.MaxSchedules {
		sys, err := build(b, o)
		if err != nil {
			return nil, err
		}
		res.Schedules++
		bud := o.budget()
		fpKey := func() string { return bud.String() + sys.fingerprint() }

		var sched Schedule
		violated, pruned := false, false

		// Replay the decided prefix. Only the deepest frame's edge is
		// new (its cur advanced in the last backtrack), so only it can
		// surface a fresh violation; checking every step is simply
		// uniform.
		for i := range stack {
			c := stack[i].choices[stack[i].cur]
			bud.use(c)
			if err := sys.apply(c); err != nil {
				return nil, fmt.Errorf("explore: nondeterministic build: replay diverged: %w", err)
			}
			sched = append(sched, c)
			res.Steps++
			if !sys.mon.Ok() {
				violated = true
				break
			}
		}

		// The state behind the one new replayed edge gets the same
		// cache treatment extension states do.
		if !violated && len(stack) > 0 {
			key, remaining := fpKey(), o.MaxSteps-len(sched)
			if seen, ok := cache[key]; ok && seen >= remaining {
				res.Pruned++
				pruned = true
			} else {
				cache[key] = remaining
			}
		}

		// Extend greedily: take the first enabled choice at each new
		// depth until terminal, bound, prune or violation.
		for !violated && !pruned {
			if len(sched) >= o.MaxSteps {
				res.Truncated++
				break
			}
			en := sys.enabled(bud)
			if len(en) == 0 {
				sys.checkTerminal(o)
				violated = !sys.mon.Ok()
				break
			}
			stack = append(stack, frame{choices: en})
			c := en[0]
			bud.use(c)
			if err := sys.apply(c); err != nil {
				return nil, fmt.Errorf("explore: enabled choice failed to apply: %w", err)
			}
			sched = append(sched, c)
			res.Steps++
			if !sys.mon.Ok() {
				violated = true
				break
			}
			key, remaining := fpKey(), o.MaxSteps-len(sched)
			if seen, ok := cache[key]; ok && seen >= remaining {
				res.Pruned++
				break
			}
			cache[key] = remaining
		}

		if violated {
			res.States = len(cache)
			res.Counterexample = &Counterexample{Schedule: sched, Violations: sys.mon.Violations()}
			return res, nil
		}

		// Backtrack to the next unexplored sibling.
		advanced := false
		for len(stack) > 0 {
			last := &stack[len(stack)-1]
			if last.cur+1 < len(last.choices) {
				last.cur++
				advanced = true
				break
			}
			stack = stack[:len(stack)-1]
		}
		if !advanced {
			res.Exhausted = true
			break
		}
	}
	res.States = len(cache)
	return res, nil
}
