// Package harness mimics a DES package (its path ends in
// internal/harness, which is on the list). Its own files are clean —
// every nondeterminism source lives one package over, in util — so all
// expectations sit in util's sources.
package harness

import "dettaint/internal/util"

// Run is an exported entry point; everything it reaches is in the DES
// slice of the program.
func Run(reps int) int64 {
	var acc int64
	for i := 0; i < reps; i++ {
		acc += util.Stamp()
		acc += int64(util.Pick())
	}
	util.Background(func() {})
	return acc
}

// internalOnly is unexported, so it is not a root; it is also never
// called. Its body holds no source itself, and it adds no chain: only
// the exported API seeds reachability.
func internalOnly() int64 {
	return util.Stamp()
}
