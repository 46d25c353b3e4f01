// Package run (corpus) is where the table allows the assembly symbols:
// none of its uses is a finding.
package run

import (
	"confine/internal/simnet"
	"confine/internal/workload"
)

type Outcome struct{ Records []workload.Record }

func Build() Outcome {
	net := simnet.New(simnet.Options{KindCounts: true})
	_ = net
	r := workload.NewRunner()
	return Outcome{Records: r.Records()}
}
