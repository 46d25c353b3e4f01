package lint_test

import (
	"testing"

	"gridmutex/internal/lint"
	"gridmutex/internal/lint/linttest"
)

func TestAllocHygieneHotPath(t *testing.T) {
	linttest.Run(t, linttest.TestDataDir(t), lint.AllocHygiene,
		"allochygiene/internal/simnet",
	)
}
