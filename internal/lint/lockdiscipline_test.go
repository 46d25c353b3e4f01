package lint_test

import (
	"testing"

	"gridmutex/internal/lint"
	"gridmutex/internal/lint/linttest"
)

func TestLockDisciplineBad(t *testing.T) {
	linttest.Run(t, linttest.TestDataDir(t), lint.LockDiscipline, "lockdiscipline/internal/livenet/bad")
}

func TestLockDisciplineGood(t *testing.T) {
	linttest.Run(t, linttest.TestDataDir(t), lint.LockDiscipline, "lockdiscipline/internal/livenet/good")
}
