package lint_test

import (
	"testing"

	"gridmutex/internal/lint"
	"gridmutex/internal/lint/linttest"
)

func TestVirtualTimeBad(t *testing.T) {
	linttest.Run(t, linttest.TestDataDir(t), lint.VirtualTime, "virtualtime/internal/des/bad")
}

func TestVirtualTimeGood(t *testing.T) {
	linttest.Run(t, linttest.TestDataDir(t), lint.VirtualTime, "virtualtime/internal/des/good")
}
