package adaptive

import "time"

// GapPolicy is the switching policy for composed deployments, where the
// inter token holder is logically in the critical section the whole time
// its cluster owns the right. It measures, with an injected clock (the
// simulator's virtual clock or wall time), the delay between acquiring the
// token and the first remote request for it:
//
//   - short gaps: other clusters are already waiting — low parallelism —
//     ring (Martin);
//   - long gaps (or none): requests are rare — high parallelism —
//     broadcast (Suzuki);
//   - in between: tree (Naimi-Trehel).
//
// Gap thresholds are expressed as multiples of the critical section
// duration α so the policy is workload-scale free.
type GapPolicy struct {
	// Clock returns the current time; required.
	Clock func() time.Duration
	// Alpha is the application's critical section duration.
	Alpha time.Duration

	grantAt    time.Duration
	holding    bool
	sawPending bool
	gaps       []time.Duration
	lastRec    string
	streak     int
}

// The policy's thresholds, the same for every adaptive run in the tree.
const (
	shortGap  = 3.0  // gaps below shortGap·α vote for Martin
	longGap   = 30.0 // gaps above longGap·α vote for Suzuki
	gapWindow = 4    // how many recent gaps are considered
	// gapPatience is how many consecutive consultations must agree on the
	// same different algorithm before a switch is recommended — hysteresis
	// against flapping at regime boundaries, where each switch costs a
	// prepare/vote/commit round.
	gapPatience = 3
)

// NewGapPolicy returns a GapPolicy for critical sections of duration alpha.
func NewGapPolicy(clock func() time.Duration, alpha time.Duration) *GapPolicy {
	return &GapPolicy{Clock: clock, Alpha: alpha}
}

// ObserveGrant implements Policy.
func (p *GapPolicy) ObserveGrant() {
	p.grantAt = p.Clock()
	p.holding = true
	p.sawPending = false
}

// ObservePending implements Policy: the first pending per holding period
// contributes one gap sample.
func (p *GapPolicy) ObservePending() {
	if !p.holding || p.sawPending {
		return
	}
	p.sawPending = true
	p.push(p.Clock() - p.grantAt)
}

// ObserveRelease implements Policy. A release without any observed pending
// still means a request arrived (it is what triggers handoff), so it
// contributes the gap up to now.
func (p *GapPolicy) ObserveRelease(busy bool) {
	if p.holding && !p.sawPending {
		p.push(p.Clock() - p.grantAt)
	}
	p.holding = false
}

func (p *GapPolicy) push(gap time.Duration) {
	p.gaps = append(p.gaps, gap)
	if len(p.gaps) > gapWindow {
		p.gaps = p.gaps[1:]
	}
}

// Recommend implements Policy using the mean of the recent gaps, with
// gapPatience consecutive agreements required before recommending a change.
func (p *GapPolicy) Recommend(current string) string {
	if len(p.gaps) < gapWindow {
		return current
	}
	var sum time.Duration
	for _, g := range p.gaps {
		sum += g
	}
	mean := float64(sum) / float64(len(p.gaps))
	alpha := float64(p.Alpha)
	var rec string
	switch {
	case mean <= shortGap*alpha:
		rec = "martin"
	case mean >= longGap*alpha:
		rec = "suzuki"
	default:
		rec = "naimi"
	}
	if rec == current {
		p.lastRec, p.streak = "", 0
		return current
	}
	if rec == p.lastRec {
		p.streak++
	} else {
		p.lastRec, p.streak = rec, 1
	}
	if p.streak < gapPatience {
		return current
	}
	p.lastRec, p.streak = "", 0
	return rec
}

// compile-time interface check
var _ Policy = (*GapPolicy)(nil)
