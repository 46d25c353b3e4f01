package main

import (
	"runtime"
	"testing"
)

// TestParallelZeroMeansGOMAXPROCS: the flag's help promises "0 =
// GOMAXPROCS", but RunOptions.Workers' zero value is serial — the mapping
// between the two is this function.
func TestParallelZeroMeansGOMAXPROCS(t *testing.T) {
	if got, want := workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("workers(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	for _, n := range []int{1, 2, 8, -1} {
		if got := workers(n); got != n {
			t.Errorf("workers(%d) = %d, want it passed through", n, got)
		}
	}
}
