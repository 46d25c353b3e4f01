// Package run (corpus) is where the table allows the assembly symbols:
// none of those uses is a finding. The grant list is not among them.
package run

import (
	"confine/internal/simnet"
	"confine/internal/workload"
)

type Outcome struct{ Grants int }

func Build() Outcome {
	net := simnet.New(simnet.Options{KindCounts: true})
	_ = net
	r := workload.NewRunner()
	return Outcome{Grants: len(r.Records())} // want `internal/workload.Runner.Records used outside \[examples bench\]`
}
