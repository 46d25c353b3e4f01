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

// Mix folds base and parts into one seed. Each part passes through the
// finalizer of Steele et al.'s SplitMix64 generator — a bijective avalanche
// mix in which every input bit affects every output bit — so additive
// strides in the inputs (repetition 0, 1, 2…) cannot alias across the
// derived streams. TestMixPinned holds the seeds the goldens depend on.
func Mix(base int64, parts ...uint64) int64 {
	z := splitMix64(uint64(base) + 0x9e3779b97f4a7c15)
	for _, p := range parts {
		z = splitMix64(z ^ p)
	}
	return int64(z)
}

func splitMix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
