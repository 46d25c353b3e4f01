package adaptive

import (
	"testing"
	"time"
)

// fakeClock is an advanceable virtual clock for GapPolicy tests.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) fn() func() time.Duration { return func() time.Duration { return c.now } }

const alpha = 10 * time.Millisecond

// recommendStable consults the policy until its gapPatience hysteresis is
// satisfied, returning the final recommendation.
func recommendStable(p *GapPolicy, current string) string {
	out := current
	for i := 0; i < gapPatience+1; i++ {
		out = p.Recommend(current)
		if out != current {
			return out
		}
	}
	return out
}

// feedGaps runs the grant/pending cycle Window times with the given gap.
func feedGaps(p *GapPolicy, c *fakeClock, gap time.Duration) {
	for i := 0; i < gapWindow; i++ {
		p.ObserveGrant()
		c.now += gap
		p.ObservePending()
		c.now += alpha
		p.ObserveRelease(true)
	}
}

func TestGapPolicyShortGapsRecommendMartin(t *testing.T) {
	c := &fakeClock{}
	p := NewGapPolicy(c.fn(), alpha)
	feedGaps(p, c, alpha) // gaps of 1*alpha < shortGap*alpha
	if got := recommendStable(p, "naimi"); got != "martin" {
		t.Fatalf("short gaps recommend %q, want martin", got)
	}
}

func TestGapPolicyLongGapsRecommendSuzuki(t *testing.T) {
	c := &fakeClock{}
	p := NewGapPolicy(c.fn(), alpha)
	feedGaps(p, c, 100*alpha) // far above longGap*alpha
	if got := recommendStable(p, "naimi"); got != "suzuki" {
		t.Fatalf("long gaps recommend %q, want suzuki", got)
	}
}

func TestGapPolicyMediumGapsRecommendNaimi(t *testing.T) {
	c := &fakeClock{}
	p := NewGapPolicy(c.fn(), alpha)
	feedGaps(p, c, 10*alpha) // between shortGap (3) and longGap (30)
	if got := recommendStable(p, "martin"); got != "naimi" {
		t.Fatalf("medium gaps recommend %q, want naimi", got)
	}
}

func TestGapPolicyWarmup(t *testing.T) {
	c := &fakeClock{}
	p := NewGapPolicy(c.fn(), alpha)
	p.ObserveGrant()
	c.now += alpha
	p.ObservePending()
	if got := p.Recommend("naimi"); got != "naimi" {
		t.Fatalf("under-filled window recommends %q, want current", got)
	}
}

// TestGapPolicyReleaseWithoutPending: a holding period that ends without an
// observed pending still contributes its full duration as a gap sample.
func TestGapPolicyReleaseWithoutPending(t *testing.T) {
	c := &fakeClock{}
	p := NewGapPolicy(c.fn(), alpha)
	for i := 0; i < gapWindow; i++ {
		p.ObserveGrant()
		c.now += 200 * alpha // long quiet holding
		p.ObserveRelease(false)
	}
	if got := recommendStable(p, "naimi"); got != "suzuki" {
		t.Fatalf("quiet holdings recommend %q, want suzuki", got)
	}
}

// TestGapPolicySecondPendingIgnored: only the first pending per holding
// period samples the gap.
func TestGapPolicySecondPendingIgnored(t *testing.T) {
	c := &fakeClock{}
	p := NewGapPolicy(c.fn(), alpha)
	p.ObserveGrant()
	c.now += alpha
	p.ObservePending()
	c.now += 1000 * alpha
	p.ObservePending() // must not add a second (huge) sample
	p.ObserveRelease(true)
	if len(p.gaps) != 1 || p.gaps[0] != alpha {
		t.Fatalf("gaps = %v, want [%v]", p.gaps, alpha)
	}
}

func TestGapPolicyWindowSlides(t *testing.T) {
	c := &fakeClock{}
	p := NewGapPolicy(c.fn(), alpha)
	feedGaps(p, c, alpha)      // martin territory
	feedGaps(p, c, 1000*alpha) // overwrite with suzuki territory
	if got := recommendStable(p, "martin"); got != "suzuki" {
		t.Fatalf("slid window recommends %q, want suzuki", got)
	}
	if len(p.gaps) != gapWindow {
		t.Fatalf("window holds %d samples, want %d", len(p.gaps), gapWindow)
	}
}

func TestGapPolicyPendingWithoutHoldingIgnored(t *testing.T) {
	c := &fakeClock{}
	p := NewGapPolicy(c.fn(), alpha)
	p.ObservePending() // never granted: no sample
	if len(p.gaps) != 0 {
		t.Fatalf("gaps = %v, want none", p.gaps)
	}
}

// TestGapPolicyHysteresis: a single deviant consultation does not flip the
// recommendation.
func TestGapPolicyHysteresis(t *testing.T) {
	c := &fakeClock{}
	p := NewGapPolicy(c.fn(), alpha)
	feedGaps(p, c, alpha) // martin territory
	if got := p.Recommend("naimi"); got != "naimi" {
		t.Fatalf("first consultation switched immediately to %q", got)
	}
	if got := p.Recommend("naimi"); got != "naimi" {
		t.Fatalf("second consultation switched early to %q", got)
	}
	if got := p.Recommend("naimi"); got != "martin" {
		t.Fatalf("third consistent consultation gave %q, want martin", got)
	}
	// Streak resets after a switch recommendation.
	if got := p.Recommend("martin"); got != "martin" {
		t.Fatalf("matching current should stay, got %q", got)
	}
}
