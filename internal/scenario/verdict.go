package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Check is one evaluated invariant or envelope of a verdict.
type Check struct {
	// Name identifies the check: "safety", "liveness", "completion",
	// "envelope:<metric>", ...
	Name string `json:"name"`
	Pass bool   `json:"pass"`
	// Detail explains a failure (first violation, measured-vs-envelope
	// delta); empty on pass unless the check has something to report.
	Detail string `json:"detail,omitempty"`
}

// Verdict is the structured outcome of one scenario run. Its JSON
// rendering is byte-deterministic: checks appear in fixed evaluation
// order, metrics in registry order, and no map is ever marshalled.
type Verdict struct {
	Scenario string   `json:"scenario"`
	Doc      string   `json:"doc,omitempty"`
	Seed     int64    `json:"seed"`
	Pass     bool     `json:"pass"`
	Checks   []Check  `json:"checks"`
	Metrics  []Metric `json:"metrics"`
}

// JSON renders the verdict as indented JSON with a trailing newline.
func (v *Verdict) JSON() []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Verdict contains no unmarshalable types; this cannot happen.
		panic(err)
	}
	return append(b, '\n')
}

// String renders a compact human-readable report.
func (v *Verdict) String() string {
	var b strings.Builder
	status := "PASS"
	if !v.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s %s (seed %d, %d checks)\n", status, v.Scenario, v.Seed, len(v.Checks))
	for _, c := range v.Checks {
		if c.Pass {
			continue
		}
		fmt.Fprintf(&b, "  FAIL %-24s %s\n", c.Name, c.Detail)
	}
	return b.String()
}
