package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// JSON serializes the schedule as a JSON list of step choices — the
// counterexample format documented in DESIGN.md ("Schedule exploration").
func (s Schedule) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Choices are plain data; marshalling cannot fail.
		panic(fmt.Sprintf("explore: marshalling schedule: %v", err))
	}
	return b
}

// ParseSchedule parses the JSON list produced by Schedule.JSON. It is
// strict: a field Choice does not have, or an op the explorer does not
// know, is an error that names the step (counted from 1, as Replay's
// errors count).
func ParseSchedule(data []byte) (Schedule, error) {
	var steps []json.RawMessage
	if err := json.Unmarshal(data, &steps); err != nil {
		return nil, fmt.Errorf("explore: parsing schedule: %w", err)
	}
	s := make(Schedule, len(steps))
	for i, step := range steps {
		dec := json.NewDecoder(bytes.NewReader(step))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s[i]); err != nil {
			return nil, fmt.Errorf("explore: parsing schedule: step %d: %w", i+1, err)
		}
		if !s[i].Op.known() {
			return nil, fmt.Errorf("explore: parsing schedule: step %d: unknown op %q", i+1, s[i].Op)
		}
	}
	return s, nil
}

// JSON serializes the counterexample (schedule plus violations).
func (c *Counterexample) JSON() []byte {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("explore: marshalling counterexample: %v", err))
	}
	return b
}

// Replay re-executes a schedule against a freshly built system exactly as
// the explorers do — stopping at the first violation, running the
// terminal-state assertions if the schedule ends with nothing enabled —
// and returns the violations it produces (empty means the schedule runs
// clean). A choice that is not applicable in the state it is reached in
// (a hand-edited or over-minimized schedule) returns an error.
func Replay(b Builder, sched Schedule, opts Options) ([]string, error) {
	o := opts.fill()
	sys, err := build(b, o)
	if err != nil {
		return nil, err
	}
	bud := o.budget()
	for _, c := range sched {
		bud.use(c)
		if err := sys.apply(c); err != nil {
			if !sys.mon.Ok() {
				// The inapplicability itself surfaced as a violation
				// (e.g. a panic out of an instance).
				return sys.mon.Violations(), nil
			}
			return nil, err
		}
		if !sys.mon.Ok() {
			return sys.mon.Violations(), nil
		}
	}
	if len(sys.enabled(bud)) == 0 {
		sys.checkTerminal(o)
	}
	return sys.mon.Violations(), nil
}

// Minimize greedily delta-debugs a violating schedule: it repeatedly
// tries deleting each step and keeps any deletion after which the
// schedule still produces a violation, until no single deletion survives.
// It returns the minimized schedule and the violations its replay
// produces (the byte-exact strings a later Replay of the same schedule
// yields again).
func Minimize(b Builder, sched Schedule, opts Options) (Schedule, []string, error) {
	cur := append(Schedule(nil), sched...)
	v, err := Replay(b, cur, opts)
	if err != nil {
		return nil, nil, err
	}
	if len(v) == 0 {
		return nil, nil, fmt.Errorf("explore: schedule to minimize does not violate")
	}
	improved := true
	for improved {
		improved = false
		for i := 0; i < len(cur); i++ {
			cand := append(append(Schedule(nil), cur[:i]...), cur[i+1:]...)
			cv, err := Replay(b, cand, opts)
			if err != nil || len(cv) == 0 {
				continue // deletion breaks reproduction; keep the step
			}
			cur, v = cand, cv
			improved = true
			i--
		}
	}
	return cur, v, nil
}
