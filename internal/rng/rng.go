// Package rng is the one place the simulator obtains random streams and
// derives seeds. Every committed figure, trace and verdict is a function
// of math/rand's seeded stream, so New must keep returning exactly that
// stream (pinned by TestStreamMatchesStdlib).
package rng

import "math/rand"

// New returns a generator producing the stream of
// rand.New(rand.NewSource(seed)). A run seeds two (simnet, workload);
// each seeding fills the source's 607-word register, about 10 µs.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitMix64 is the finalizer of Steele et al.'s SplitMix64 generator: a
// bijective avalanche mix in which every input bit affects every output
// bit. Seed derivations (per-run, per-fault streams) chain it so additive
// strides in their inputs cannot alias.
func SplitMix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
