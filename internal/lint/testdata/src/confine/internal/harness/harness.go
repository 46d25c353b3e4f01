// Package harness (corpus) uses confined symbols the ways a text match
// misses; every use but sweep's call and the suppressed one is a finding.
package harness

import (
	h "container/heap" // want `container/heap used outside \[\]`
	"os"

	sn "confine/internal/simnet"
	"confine/internal/stats"
	wl "confine/internal/workload"
)

var mkNet = sn.New // want `internal/simnet.New used outside`

var push = h.Push

type Scale struct{ Workers int }

func serial(s Scale) Scale {
	s.Workers = 1
	return s
}

func runShards[T any](groups int, exec func(group int) T) {
	for g := 0; g < groups; g++ {
		exec(g)
	}
}

func sweep() {
	runShards(1, func(int) int { return 0 })
}

func second() {
	runShards[int](1, func(int) int { return 0 }) // want `internal/harness.runShards used outside \[internal/harness.sweep\]`
}

func cell(r *wl.Runner) int {
	acc := stats.Accumulator{Sketch:true} // want `internal/stats.Accumulator.Sketch used outside \[bench\]`
	_ = acc
	var opts sn.Options
	opts.KindCounts = true // want `internal/simnet.Options.KindCounts used outside`
	records := r.Records   // want `internal/workload.Runner.Records used outside`
	return len(r.Records()) + len(records()) // want `internal/workload.Runner.Records used outside`
}

func quick() bool {
	//lint:allow confine corpus: proves a reasoned pragma suppresses a confine finding
	_, ok := os.LookupEnv("X")
	return ok
}
