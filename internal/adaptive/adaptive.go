// Package adaptive implements the paper's proposed future work (section
// 6): a dynamic composition scheme in which the inter-cluster algorithm is
// replaced at runtime according to the observed application behaviour.
//
// Every participant wraps its inter instance in an Instance from this
// package. The wrapper runs an epoch-based reconfiguration protocol:
//
//  1. A participant that holds the token idle with no pending requests may
//     propose a switch (its Policy recommends a different algorithm). It
//     broadcasts a Prepare carrying a fresh Attempt identifier.
//  2. Every other participant votes: Nack if it has an outstanding request
//     (or is itself mid-switch), otherwise Ack — freezing new requests
//     (they are buffered, not issued) until the decision.
//  3. All Acks: the proposer installs a fresh instance of the new
//     algorithm with itself as holder, bumps the generation, and
//     broadcasts Commit; each receiver installs the same instance
//     configuration, then replays buffered traffic and requests. Any Nack:
//     the proposer broadcasts Abort and everyone thaws.
//
// Inner-algorithm messages are tagged with the generation that produced
// them: messages from a replaced generation are dropped (their state is
// gone), messages from a future generation — possible because Commit
// travels on a different link than the first new-generation traffic — are
// buffered until the local Commit arrives.
//
// The protocol only commits when no participant has an outstanding
// request, so a switch can never strand a request. The flip side is that
// switches need a quiescent moment: a permanently saturated system keeps
// its current algorithm. Section 6 of the paper leaves the mechanism
// unspecified; this conservative design favours safety.
package adaptive

import (
	"fmt"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/mutex"
)

// Config describes the adaptive wrapper shared by all participants.
type Config struct {
	// Initial is the algorithm the composition starts with.
	Initial string
	// Policy decides when to switch; nil disables switching (the
	// wrapper then adds no messages). Each participant receives its own
	// Policy instance from NewPolicy.
	NewPolicy func() Policy
}

// Policy observes local token activity and recommends switches. Policies
// are per-participant and consulted only while that participant holds the
// token.
//
// In the composed architecture the inter token is never idle: its holder
// (a coordinator) is logically in the critical section for as long as its
// cluster owns the right. The wrapper therefore consults the policy both
// when the holder is idle (plain usage) and right after it acquires the
// token (coordinator usage), and the observation hooks cover the events a
// coordinator-side wrapper actually sees.
type Policy interface {
	// ObserveGrant is called when this participant's request is
	// granted.
	ObserveGrant()
	// ObservePending is called when another participant's request
	// reaches this participant while it holds the token.
	ObservePending()
	// ObserveRelease is called on every wrapper Release; busy reports
	// whether other requests were already pending at that moment.
	ObserveRelease(busy bool)
	// Recommend is consulted at proposal opportunities; returning a
	// name different from current proposes a switch.
	Recommend(current string) string
}

// NewFactory returns a mutex.Factory producing adaptive wrappers. Use it
// with core.BuildMultiLevelWith at the inter level.
func NewFactory(cfg Config) (mutex.Factory, error) {
	if _, err := algorithms.Factory(cfg.Initial); err != nil {
		return nil, fmt.Errorf("adaptive: %w", err)
	}
	return func(mc mutex.Config) (mutex.Instance, error) {
		if err := mc.Validate(); err != nil {
			return nil, err
		}
		inst := &Instance{cfg: cfg, mc: mc, alg: cfg.Initial}
		if cfg.NewPolicy != nil {
			inst.policy = cfg.NewPolicy()
		}
		if err := inst.install(cfg.Initial, mc.Holder); err != nil {
			return nil, err
		}
		return inst, nil
	}, nil
}

// Attempt uniquely identifies one switch proposal.
type Attempt struct {
	Proposer mutex.ID
	Seq      int64
}

// Wrapper wire messages. They share the instance's channel with wrapped
// inner messages.

// Prepare proposes switching to Alg.
type Prepare struct {
	Attempt Attempt
	Alg     string
}

// Kind implements mutex.Message.
func (Prepare) Kind() string { return "adaptive.prepare" }

// Vote answers a Prepare.
type Vote struct {
	Attempt Attempt
	Ok      bool
}

// Kind implements mutex.Message.
func (Vote) Kind() string { return "adaptive.vote" }

// Commit installs generation Gen of algorithm Alg with the proposer as
// holder.
type Commit struct {
	Attempt Attempt
	Gen     int64
	Alg     string
}

// Kind implements mutex.Message.
func (Commit) Kind() string { return "adaptive.commit" }

// Abort cancels a proposal.
type Abort struct {
	Attempt Attempt
}

// Kind implements mutex.Message.
func (Abort) Kind() string { return "adaptive.abort" }

// Inner carries a wrapped inner-algorithm message of generation Gen.
type Inner struct {
	Gen int64
	M   mutex.Message
}

// Kind implements mutex.Message.
func (i Inner) Kind() string { return i.M.Kind() }

// bufferedInner is a future-generation message awaiting its Commit.
type bufferedInner struct {
	gen  int64
	from mutex.ID
	m    mutex.Message
}

// Instance is the per-participant adaptive wrapper.
type Instance struct {
	cfg    Config
	mc     mutex.Config
	policy Policy

	inner mutex.Instance
	alg   string
	gen   int64

	// Owner-visible request state: the wrapper must answer State()
	// coherently even while a request is frozen in the buffer.
	reqOutstanding  bool
	inCS            bool // the owner is logically inside the CS
	suppressAcquire bool // swallow the re-grant after an in-CS switch
	frozen          bool
	frozenBy        Attempt // proposal the freeze belongs to
	buffered        bool    // a Request arrived while frozen

	// Proposer state.
	proposing   bool
	curAttempt  Attempt
	pendingAlg  string
	votes       int
	nacked      bool
	attemptSeq  int64
	switchCount int64

	// Future-generation traffic awaiting the local Commit.
	future []bufferedInner
}

// compile-time interface check
var _ mutex.Instance = (*Instance)(nil)

// install replaces the inner instance with a fresh one.
func (a *Instance) install(alg string, holder mutex.ID) error {
	factory, err := algorithms.Factory(alg)
	if err != nil {
		return err
	}
	inner, err := factory(mutex.Config{
		Self:    a.mc.Self,
		Members: a.mc.Members,
		Holder:  holder,
		Env:     &innerEnv{a: a},
		Callbacks: mutex.Callbacks{
			OnAcquire: a.onInnerAcquire,
			OnPending: a.onInnerPending,
		},
	})
	if err != nil {
		return err
	}
	a.inner = inner
	a.alg = alg
	return nil
}

// innerEnv tags outgoing inner messages with the current generation.
type innerEnv struct{ a *Instance }

func (e *innerEnv) Send(to mutex.ID, m mutex.Message) {
	e.a.mc.Env.Send(to, Inner{Gen: e.a.gen, M: m})
}

func (e *innerEnv) Local(f func()) { e.a.mc.Env.Local(f) }

func (a *Instance) onInnerAcquire() {
	if a.suppressAcquire {
		// Re-acquisition of the critical section on a freshly
		// installed instance after an in-CS switch: the owner never
		// logically left the CS, so the grant is internal.
		a.suppressAcquire = false
		return
	}
	a.inCS = true
	if a.policy != nil {
		a.policy.ObserveGrant()
	}
	if f := a.mc.Callbacks.OnAcquire; f != nil {
		f()
	}
	// A coordinator holds the token "in CS" for as long as its cluster
	// owns the right, so right after a grant is the natural proposal
	// opportunity in composed deployments.
	a.maybePropose()
}

func (a *Instance) onInnerPending() {
	if a.policy != nil {
		a.policy.ObservePending()
	}
	if f := a.mc.Callbacks.OnPending; f != nil {
		f()
	}
}

// Algorithm returns the name of the algorithm currently installed.
func (a *Instance) Algorithm() string { return a.alg }

// Generation returns the number of committed switches.
func (a *Instance) Generation() int64 { return a.gen }

// Switches returns how many switches this participant has committed.
func (a *Instance) Switches() int64 { return a.switchCount }

// Request implements mutex.Instance; while a switch decision is pending
// the request is buffered and replayed afterwards.
func (a *Instance) Request() {
	if a.reqOutstanding {
		panic("adaptive: Request while outstanding")
	}
	a.reqOutstanding = true
	if a.frozen {
		a.buffered = true
		return
	}
	a.inner.Request()
}

// Release implements mutex.Instance. After releasing, an idle
// token-holding participant consults its policy and may propose a switch.
func (a *Instance) Release() {
	busy := a.inner.HasPending()
	a.reqOutstanding = false
	a.inCS = false
	a.inner.Release()
	if a.policy != nil {
		a.policy.ObserveRelease(busy)
	}
	a.maybePropose()
}

// maybePropose starts a switch proposal when allowed: this participant
// holds the token with no pending requests, either idle or inside the
// critical section (the composed coordinator case).
func (a *Instance) maybePropose() {
	if a.policy == nil || a.frozen || a.proposing {
		return
	}
	if !a.inner.HoldsToken() || a.inner.HasPending() {
		return
	}
	switch a.inner.State() {
	case mutex.NoReq:
		if a.reqOutstanding {
			return
		}
	case mutex.InCS:
		// Allowed: the holder stays in its CS across the switch.
	default:
		return
	}
	if len(a.mc.Members) < 2 {
		return
	}
	target := a.policy.Recommend(a.alg)
	if target == "" || target == a.alg {
		return
	}
	if _, err := algorithms.Factory(target); err != nil {
		panic(fmt.Sprintf("adaptive: policy recommended unknown algorithm %q", target))
	}
	a.attemptSeq++
	a.curAttempt = Attempt{Proposer: a.mc.Self, Seq: a.attemptSeq}
	a.proposing = true
	a.frozen = true
	a.frozenBy = a.curAttempt
	a.votes = 0
	a.nacked = false
	p := Prepare{Attempt: a.curAttempt, Alg: target}
	for _, m := range a.mc.Members {
		if m != a.mc.Self {
			a.mc.Env.Send(m, p)
		}
	}
	a.pendingAlg = target
}

// Deliver implements mutex.Instance, demultiplexing protocol messages from
// wrapped inner traffic.
func (a *Instance) Deliver(from mutex.ID, m mutex.Message) {
	switch msg := m.(type) {
	case Inner:
		a.onInner(from, msg)
	case Prepare:
		a.onPrepare(from, msg)
	case Vote:
		a.onVote(msg)
	case Commit:
		a.onCommit(msg)
	case Abort:
		a.onAbort(msg)
	default:
		panic(fmt.Sprintf("adaptive: unexpected message %T", m))
	}
}

func (a *Instance) onInner(from mutex.ID, msg Inner) {
	switch {
	case msg.Gen == a.gen:
		a.inner.Deliver(from, msg.M)
		// Inner activity can create the quiescence a pending
		// recommendation was waiting for — nothing to do here; the
		// next Release re-checks.
	case msg.Gen < a.gen:
		// Stale generation: that instance's state is gone everywhere.
	default:
		a.future = append(a.future, bufferedInner{gen: msg.Gen, from: from, m: msg.M})
	}
}

func (a *Instance) onPrepare(from mutex.ID, p Prepare) {
	ok := !a.reqOutstanding && !a.frozen && !a.proposing
	if ok {
		a.frozen = true
		a.frozenBy = p.Attempt
	}
	a.mc.Env.Send(from, Vote{Attempt: p.Attempt, Ok: ok})
}

func (a *Instance) onVote(v Vote) {
	if !a.proposing || v.Attempt != a.curAttempt {
		return
	}
	if !v.Ok {
		a.nacked = true
	}
	a.votes++
	if a.votes < len(a.mc.Members)-1 {
		return
	}
	// All votes in: decide.
	a.proposing = false
	if a.nacked {
		for _, m := range a.mc.Members {
			if m != a.mc.Self {
				a.mc.Env.Send(m, Abort{Attempt: a.curAttempt})
			}
		}
		a.thaw()
		return
	}
	a.gen++
	a.switchCount++
	if err := a.install(a.pendingAlg, a.mc.Self); err != nil {
		panic(fmt.Sprintf("adaptive: commit install: %v", err))
	}
	if a.inCS {
		// The proposer never logically left the critical section:
		// re-enter it on the fresh instance (immediate, it is the
		// holder) and swallow the resulting grant callback.
		a.suppressAcquire = true
		a.inner.Request()
	}
	c := Commit{Attempt: a.curAttempt, Gen: a.gen, Alg: a.pendingAlg}
	for _, m := range a.mc.Members {
		if m != a.mc.Self {
			a.mc.Env.Send(m, c)
		}
	}
	a.thaw()
}

func (a *Instance) onCommit(c Commit) {
	if !a.frozen || c.Attempt != a.frozenBy {
		// A commit for an Attempt we Nacked cannot exist: commits
		// require unanimous Acks.
		panic(fmt.Sprintf("adaptive: unexpected commit for Attempt %+v", c.Attempt))
	}
	a.gen = c.Gen
	a.switchCount++
	if err := a.install(c.Alg, c.Attempt.Proposer); err != nil {
		panic(fmt.Sprintf("adaptive: commit install: %v", err))
	}
	a.thaw()
}

func (a *Instance) onAbort(ab Abort) {
	if !a.frozen || ab.Attempt != a.frozenBy {
		return
	}
	a.thaw()
}

// thaw leaves the frozen state: replay buffered future-generation traffic
// that now matches, then the buffered request.
func (a *Instance) thaw() {
	a.frozen = false
	a.frozenBy = Attempt{}
	if len(a.future) > 0 {
		pending := a.future
		a.future = nil
		for _, b := range pending {
			a.onInner(b.from, Inner{Gen: b.gen, M: b.m})
		}
	}
	if a.buffered {
		a.buffered = false
		a.inner.Request()
	}
}

// HasPending implements mutex.Instance.
func (a *Instance) HasPending() bool { return a.inner.HasPending() }

// HoldsToken implements mutex.Instance.
func (a *Instance) HoldsToken() bool { return a.inner.HoldsToken() }

// State implements mutex.Instance: a buffered request reads as Req even
// though the inner instance has not seen it yet.
func (a *Instance) State() mutex.State {
	if a.buffered {
		return mutex.Req
	}
	return a.inner.State()
}
