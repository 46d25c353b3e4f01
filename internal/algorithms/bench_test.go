package algorithms

import (
	"testing"
	"time"

	"gridmutex/internal/algorithms/algotest"
)

// benchWorkload is a fixed medium-contention run used to compare the
// algorithms' simulation cost.
func benchWorkload() algotest.Workload {
	return algotest.Workload{
		Nodes: 16, RequestsPerNode: 50, CS: time.Millisecond,
		MaxThink: 5 * time.Millisecond, Seed: 1, LocalRTT: 2 * time.Millisecond,
	}
}

// BenchmarkAlgorithm measures full simulated runs per algorithm: the
// b.N loop re-executes 800 critical sections each iteration, and the
// reported metric is messages per CS.
func BenchmarkAlgorithm(b *testing.B) {
	for _, name := range Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			f, err := Factory(name)
			if err != nil {
				b.Fatal(err)
			}
			w := benchWorkload()
			w.PermissionBased = !TokenBased(name)
			var res algotest.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var c algotest.Collector
				res = algotest.Run(f, w, c.Fail)
				if len(c.Failures) > 0 {
					b.Fatal(c.Failures[0])
				}
			}
			b.ReportMetric(res.MessagesPerCS(), "msgs/CS")
		})
	}
}
