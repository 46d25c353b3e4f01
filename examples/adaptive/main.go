// Adaptive: the paper's proposed future work, running.
//
// Section 6 proposes "a dynamic and adaptive composition scheme where the
// inter algorithm will be replaced according to the application behavior".
// This example drives a workload through three phases — saturated, sparse,
// intermediate — and compares the three static inter algorithms against
// the adaptive composition, which observes token-demand gaps and switches
// its inter algorithm at runtime (ring under saturation, broadcast when
// sparse, tree in between).
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"gridmutex/internal/harness"
)

func main() {
	scale := harness.QuickScale()
	scale.Clusters = 4
	scale.AppsPerCluster = 5
	scale.CSPerProcess = 60
	scale.Repetitions = 3
	scale.Phases = harness.AdaptivePhases(scale)

	fmt.Printf("Workload phases over %d apps (alpha = %v):\n", scale.N(), scale.Alpha)
	for i, ph := range scale.Phases {
		until := "end of run"
		if i < len(scale.Phases)-1 {
			until = ph.Until.String()
		}
		fmt.Printf("  phase %d: rho = %5.0f  until %s\n", i+1, ph.Rho, until)
	}
	fmt.Println()

	// With Phases set, Run runs each system once under the schedule: one
	// point per system.
	res, err := harness.Run(harness.AdaptiveSystems(), scale, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.PhasedTable("Static inter algorithms vs adaptive switching"))

	for _, p := range res.Points {
		if p.Switches > 0 {
			fmt.Printf("the adaptive composition committed %d algorithm switches over %d repetitions\n",
				p.Switches, scale.Repetitions)
		}
	}
}
