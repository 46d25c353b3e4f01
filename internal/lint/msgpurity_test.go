package lint_test

import (
	"testing"

	"gridmutex/internal/lint"
	"gridmutex/internal/lint/linttest"
)

func TestMsgPurityBad(t *testing.T) {
	linttest.Run(t, linttest.TestDataDir(t), lint.MsgPurity, "msgpurity/internal/algorithms/bad")
}

func TestMsgPurityGood(t *testing.T) {
	linttest.Run(t, linttest.TestDataDir(t), lint.MsgPurity, "msgpurity/internal/algorithms/good")
}
