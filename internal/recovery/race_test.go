//go:build race

package recovery

// raceBuild reports a race-instrumented test binary, whose allocator
// moves byte counts by a few bytes from one build to the next.
const raceBuild = true
