package lint_test

import (
	"testing"

	"drrs/internal/lint"
	"drrs/internal/lint/linttest"
)

func TestGlobalState(t *testing.T) {
	linttest.Run(t, "testdata", lint.GlobalState, "globals")
}

// TestGlobalStateSkipsMain: package main runs once per process and is out
// of scope, so its writes carry no want comments and must stay unflagged.
func TestGlobalStateSkipsMain(t *testing.T) {
	linttest.Run(t, "testdata", lint.GlobalState, "globalsmain")
}
