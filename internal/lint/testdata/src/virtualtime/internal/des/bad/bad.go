// Package bad seeds virtual-time arithmetic that hard-codes wall-clock
// magnitudes outside the latency model.
package bad

import "time"

type sim struct{ now time.Duration }

func (s *sim) Now() time.Duration { return s.now }

func deadlines(s *sim, rto time.Duration) {
	deadline := s.Now() + 50*time.Millisecond // want `mixes a raw duration literal`
	_ = deadline
	if s.Now() > time.Second { // want `mixes a raw duration literal`
		return
	}
	elapsed := s.Now() - time.Millisecond // want `mixes a raw duration literal`
	_ = elapsed
	if rto < 10*time.Microsecond { // want `mixes a raw duration literal`
		return
	}
}
