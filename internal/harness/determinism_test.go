package harness

import (
	"reflect"
	"testing"
)

// TestRunSeedSensitivity: different seeds must actually perturb the
// schedule, or the same-seed identity checks (internal/run's kernel test,
// the goldens) are vacuous.
func TestRunSeedSensitivity(t *testing.T) {
	scale := QuickScale()
	scale.CSPerProcess = 5
	scale.Repetitions = 1

	sys := Composed("naimi", "naimi")
	a, err := runOnce(sys, scale, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOnce(sys, scale, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 produced identical grant records; seed is not reaching the run")
	}
}
