// Package util is a helper package OUTSIDE the DES package list: nothing
// scans it file by file, so its findings appear only because
// internal/harness (a DES package) reaches into it through the call
// graph.
package util

import (
	"math/rand"
	"time"
)

// Stamp is reached from harness.Run → util.Stamp: the wall-clock read
// taints the DES even though this package is not on the list.
func Stamp() int64 {
	return time.Now().UnixNano() // want `time.Now reads the wall clock on a path reachable from DES entry point internal/harness.Run`
}

// Jitter is reached transitively (harness.Run → util.Stamp is the
// shortest chain, but Jitter is called from Stamp's sibling path via
// harness.Run → util.Pick → util.Jitter).
func Jitter() int {
	return rand.Intn(10) // want `math/rand.Intn uses the global generator on a path reachable from DES entry point internal/harness.Run`
}

// Pick forwards into Jitter; it is itself clean, so the only diagnostic
// on the chain lands in Jitter.
func Pick() int {
	return Jitter()
}

// Background spawns a goroutine and is reachable, so the go statement is
// tainted too.
func Background(f func()) {
	go f() // want `go statement reachable from DES entry point internal/harness.Run`
}

// Orphan also reads the wall clock but is NOT reachable from any DES
// entry point — no function in the program calls it. Reachability
// precision: no diagnostic here.
func Orphan() time.Time {
	return time.Now()
}
