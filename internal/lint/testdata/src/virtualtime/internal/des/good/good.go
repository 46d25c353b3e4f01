// Package good shows the sanctioned ways to do virtual-time arithmetic:
// none of this may be flagged.
package good

import "time"

type sim struct{ now time.Duration }

func (s *sim) Now() time.Duration { return s.now }

// opts names every magnitude once, so call sites stay literal-free.
type opts struct{ RTO time.Duration }

func deadlines(s *sim, o opts) {
	// Named configuration values may be mixed freely.
	deadline := s.Now() + o.RTO
	_ = deadline
	// Constant-only arithmetic (declaring a default) is legal.
	def := 250 * time.Millisecond
	_ = def
	// Scaling a virtual quantity by a dimensionless constant is legal.
	long := 4 * o.RTO
	if long > o.RTO {
		return
	}
	//lint:allow virtualtime boot grace period is inherently wall-time
	grace := s.Now() + 5*time.Second
	_ = grace
}
