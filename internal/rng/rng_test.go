package rng

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamMatchesStdlib pins New's contract: whatever it is built from,
// the generator is bit-identical to math/rand's seeded source for every
// seed, across the derived distributions the simulator draws from. Every
// golden depends on it.
func TestStreamMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, 89482311, -1 << 62, 1<<63 - 1} {
		ref := rand.New(rand.NewSource(seed))
		got := New(seed)
		for i := 0; i < 2000; i++ {
			switch i % 4 {
			case 0:
				if g, w := got.Int63(), ref.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, g, w)
				}
			case 1:
				if g, w := got.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, g, w)
				}
			case 2:
				if g, w := got.Float64(), ref.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, g, w)
				}
			case 3:
				if g, w := got.ExpFloat64(), ref.ExpFloat64(); g != w {
					t.Fatalf("seed %d draw %d: ExpFloat64 = %v, want %v", seed, i, g, w)
				}
			}
		}
	}
}

// TestMixPinned holds the seeds the harness derives per (base, ρ,
// repetition) and the scenario engine per (seed, fault index + 1) to the
// values they had when each spelled the fold out itself: every figure and
// verdict golden is a function of them.
func TestMixPinned(t *testing.T) {
	rho := math.Float64bits(45.0)
	for _, c := range []struct {
		base  int64
		parts []uint64
		want  int64
	}{
		{1, []uint64{rho, 0}, -1237049269030838893},
		{1, []uint64{rho, 1}, -7031907609141799517},
		{3, []uint64{1}, -4986418406098498070},
	} {
		if got := Mix(c.base, c.parts...); got != c.want {
			t.Errorf("Mix(%d, %v) = %d, want %d", c.base, c.parts, got, c.want)
		}
	}
}

func BenchmarkNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		New(int64(i))
	}
}
