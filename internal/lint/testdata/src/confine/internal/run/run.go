// Package run (corpus) is where the table allows the assembly symbols and
// the adaptive protocol: none of those uses is a finding. The grant list
// is not among them.
package run

import (
	"confine/internal/adaptive"
	"confine/internal/simnet"
	"confine/internal/workload"
)

type Outcome struct{ Grants int }

var _ = adaptive.Inner{}

func Build() Outcome {
	net := simnet.New(simnet.Options{KindCounts: true})
	_ = net
	r := workload.NewRunner()
	return Outcome{Grants: len(r.Records())} // want `internal/workload.Runner.Records used outside \[examples bench\]`
}
