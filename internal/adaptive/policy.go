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
	// ShortGap (default 3): gaps below ShortGap*Alpha vote for Martin.
	ShortGap float64
	// LongGap (default 30): gaps above LongGap*Alpha vote for Suzuki.
	LongGap float64
	// Window is how many recent gaps are considered (default 4).
	Window int
	// Patience is how many consecutive consultations must agree on the
	// same different algorithm before a switch is recommended (default
	// 3) — hysteresis against flapping at regime boundaries, where each
	// switch costs a prepare/vote/commit round.
	Patience int

	grantAt    time.Duration
	holding    bool
	sawPending bool
	gaps       []time.Duration
	lastRec    string
	streak     int
}

// NewGapPolicy returns a GapPolicy with default thresholds.
func NewGapPolicy(clock func() time.Duration, alpha time.Duration) *GapPolicy {
	return &GapPolicy{Clock: clock, Alpha: alpha, ShortGap: 3, LongGap: 30, Window: 4, Patience: 3}
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
	if p.Window <= 0 {
		p.Window = 4
	}
	p.gaps = append(p.gaps, gap)
	if len(p.gaps) > p.Window {
		p.gaps = p.gaps[1:]
	}
}

// Recommend implements Policy using the mean of the recent gaps, with
// Patience consecutive agreements required before recommending a change.
func (p *GapPolicy) Recommend(current string) string {
	if len(p.gaps) < p.Window {
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
	case mean <= p.ShortGap*alpha:
		rec = "martin"
	case mean >= p.LongGap*alpha:
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
	if p.streak < p.Patience {
		return current
	}
	p.lastRec, p.streak = "", 0
	return rec
}

// compile-time interface check
var _ Policy = (*GapPolicy)(nil)
