// Package good holds the corrected counterparts of the bad corpus: every
// construct here must pass dettaint without a diagnostic.
package good

import (
	"math/rand"
	"sort"
)

type state struct {
	pending map[int]int
	rng     *rand.Rand
}

func newState(seed int64) *state {
	return &state{pending: map[int]int{}, rng: rand.New(rand.NewSource(seed))}
}

// outstanding counts — commutative accumulation is order-independent.
func (s *state) outstanding() int {
	n := 0
	for _, v := range s.pending {
		if v > 0 {
			n++
		}
	}
	return n
}

// total sums with a compound assignment.
func (s *state) total() int {
	sum := 0
	for _, v := range s.pending {
		sum += v
	}
	return sum
}

// keys uses the collect-then-sort idiom.
func (s *state) keys() []int {
	out := make([]int, 0, len(s.pending))
	for k := range s.pending {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// anyNegative early-returns a constant: same answer in any order.
func (s *state) anyNegative() bool {
	for _, v := range s.pending {
		if v < 0 {
			return true
		}
	}
	return false
}

// clearAcked deletes the inspected key, which the spec permits and which
// cannot leak order.
func (s *state) clearAcked(cum int) {
	for k := range s.pending {
		if k <= cum {
			delete(s.pending, k)
		}
	}
}

// jitter draws from a seeded generator, never the global one.
func (s *state) jitter() float64 { return s.rng.Float64() }

// dump is genuinely order-dependent but deliberate: the escape hatch
// names the analyzer and records why.
func (s *state) dump(emit func(k, v int)) {
	//lint:allow dettaint debug dump ordering is not part of any trace or metric
	for k, v := range s.pending {
		emit(k, v)
	}
}
