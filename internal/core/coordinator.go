package core

import (
	"fmt"

	"gridmutex/internal/mutex"
)

// CoordinatorState is the global composition state of a coordinator
// (figure 1(b) of the paper).
type CoordinatorState uint8

const (
	// Booting: the coordinator has not yet completed its initial
	// acquisition of the intra token.
	Booting CoordinatorState = iota
	// Out: no local application process wants the critical section. The
	// coordinator holds the intra token (Intra = CS) and does not
	// request the inter token (Inter = NO_REQ).
	Out
	// WaitForIn: local requests are pending; the coordinator still holds
	// the intra token (Intra = CS) and waits for the inter token
	// (Inter = REQ).
	WaitForIn
	// In: the coordinator holds the inter token (Inter = CS) and has
	// granted the intra token to a local application process
	// (Intra = NO_REQ).
	In
	// WaitForOut: the coordinator holds the inter token (Inter = CS) but
	// is reclaiming the intra token (Intra = REQ) in order to satisfy a
	// pending inter request.
	WaitForOut
)

// String returns the paper's name for the state.
func (s CoordinatorState) String() string {
	switch s {
	case Booting:
		return "BOOTING"
	case Out:
		return "OUT"
	case WaitForIn:
		return "WAIT_FOR_IN"
	case In:
		return "IN"
	case WaitForOut:
		return "WAIT_FOR_OUT"
	default:
		return fmt.Sprintf("CoordinatorState(%d)", uint8(s))
	}
}

// CoordinatorStats counts automaton activity, for tests and experiments.
type CoordinatorStats struct {
	// InterAcquisitions is how many times the inter token entered this
	// cluster on behalf of local requests.
	InterAcquisitions int64
	// InterHandoffs is how many times the coordinator reclaimed its
	// intra token and released the inter token to another cluster.
	InterHandoffs int64
	// BiasRounds is how many extra local serving rounds the local-bias
	// policy inserted (see SetLocalBias).
	BiasRounds int64
}

// Coordinator is the hybrid process of section 3.1: a participant of its
// cluster's intra algorithm (where it initially holds the token and is
// seen as an application process that never computes) and a participant of
// the inter algorithm run among all coordinators.
//
// The automaton couples the two instances: local pending requests drive
// InterCSRequest, the inter grant releases the intra token to the cluster,
// pending inter requests drive the reclaim of the intra token, and the
// reclaimed intra token allows InterCSRelease.
type Coordinator struct {
	id       mutex.ID
	state    CoordinatorState
	intra    mutex.Instance
	inter    mutex.Instance
	stats    CoordinatorStats
	observer func(from, to CoordinatorState)

	// localBias is the maximum number of extra local serving rounds the
	// coordinator may insert before honouring a pending inter request.
	localBias int
	biasLeft  int

	// forfeited records that the inter claim was surrendered by Isolate
	// while the coordinator was IN (or reclaiming): when the reclaim of
	// the intra token completes there is no handoff to perform.
	forfeited bool
}

// NewCoordinator creates an unwired coordinator. Construct the intra and
// inter instances with IntraCallbacks/InterCallbacks, then call Start.
func NewCoordinator(id mutex.ID) *Coordinator {
	return &Coordinator{id: id, state: Booting}
}

// SetLocalBias makes the coordinator serve up to k additional local
// requests before releasing the inter token to a waiting remote cluster —
// the strategy of Bertier, Arantes and Sens (JPDC 2006, cited in the
// paper's related work) of treating intra-cluster requests before
// inter-cluster ones. Remote waiting grows by at most k local critical
// sections per handoff, so liveness is preserved. k = 0 (the default) is
// the paper's plain automaton. Call before Start.
func (c *Coordinator) SetLocalBias(k int) {
	if k < 0 {
		panic("core: negative local bias")
	}
	if c.intra != nil {
		panic("core: SetLocalBias after Start")
	}
	c.localBias = k
}

// ID returns the coordinator's process identifier.
func (c *Coordinator) ID() mutex.ID { return c.id }

// State returns the current automaton state.
func (c *Coordinator) State() CoordinatorState { return c.state }

// Stats returns a snapshot of automaton activity counters.
func (c *Coordinator) Stats() CoordinatorStats { return c.stats }

// SetObserver installs a callback invoked on every automaton transition —
// the hook tracing and debugging tools attach to. Pass nil to detach.
func (c *Coordinator) SetObserver(f func(from, to CoordinatorState)) { c.observer = f }

// transition moves the automaton to a new state, notifying the observer.
func (c *Coordinator) transition(to CoordinatorState) {
	from := c.state
	c.state = to
	if c.observer != nil && from != to {
		c.observer(from, to)
	}
}

// IntraCallbacks returns the callbacks to construct the intra instance
// with.
func (c *Coordinator) IntraCallbacks() mutex.Callbacks {
	return mutex.Callbacks{OnAcquire: c.onIntraAcquire, OnPending: c.onIntraPending}
}

// InterCallbacks returns the callbacks to construct the inter instance
// with.
func (c *Coordinator) InterCallbacks() mutex.Callbacks {
	return mutex.Callbacks{OnAcquire: c.onInterAcquire, OnPending: c.onInterPending}
}

// Start wires the constructed instances and performs the initial intra
// token acquisition (every coordinator boots holding its cluster's intra
// token, per section 3.1). The coordinator must be the intra instance's
// initial holder, so the acquisition completes without any message.
func (c *Coordinator) Start(intra, inter mutex.Instance) { c.Adopt(intra, inter, Booting) }

// Adopt wires a standby coordinator taking over a cluster after its
// primary crashed. Unlike Start, the automaton may begin in a state other
// than Booting, because the cluster's tokens are wherever crash recovery
// left them:
//
//   - Booting: the standby holds (or will acquire) the intra token and the
//     cluster does not own the global CS right — the normal boot path.
//   - In: the intra token is out with an application process and the
//     standby has inherited the dead primary's claim on the inter token,
//     so the cluster still owns the global CS right.
//
// Other states never survive a primary crash (they are transient message
// exchanges the recovery layer resolves into one of the two above).
func (c *Coordinator) Adopt(intra, inter mutex.Instance, st CoordinatorState) {
	if c.intra != nil || c.inter != nil {
		panic(fmt.Sprintf("core: coordinator %d started twice", c.id))
	}
	if intra == nil || inter == nil {
		panic(fmt.Sprintf("core: coordinator %d started with nil instance", c.id))
	}
	c.intra = intra
	c.inter = inter
	switch st {
	case Booting:
		c.intra.Request()
	case In:
		c.transition(In)
		c.maybeReclaimIntra()
	default:
		panic(fmt.Sprintf("core: coordinator %d cannot adopt state %v", c.id, st))
	}
}

// onIntraAcquire fires when the coordinator (re)gains the intra token:
// once at boot, and afterwards whenever a WAIT_FOR_OUT reclaim completes.
func (c *Coordinator) onIntraAcquire() {
	switch c.state {
	case Booting:
		c.transition(Out)
	case WaitForOut:
		if c.forfeited {
			// The inter claim was surrendered by Isolate: there is no
			// handoff to perform — park OUT holding the intra token.
			// Pending local requests fall through to maybeRequestInter,
			// queueing the cluster for the majority's regenerated inter
			// token; the grant arrives once the partition heals.
			c.forfeited = false
			c.transition(Out)
			break
		}
		if c.biasLeft > 0 && c.intra.HasPending() {
			// Local bias: applications queued behind the reclaim get
			// one more serving round before the handoff. The
			// coordinator stays WAIT_FOR_OUT (it still owes the inter
			// token) and cycles the intra token once more.
			c.biasLeft--
			c.stats.BiasRounds++
			c.intra.Release()
			c.intra.Request()
			return
		}
		// The cluster is quiescent again (or the bias budget is
		// spent): give the inter token to the requesting coordinator.
		c.transition(Out)
		c.stats.InterHandoffs++
		c.inter.Release()
	default:
		panic(fmt.Sprintf("core: coordinator %d acquired intra token in state %v", c.id, c.state))
	}
	// Application requests may have queued behind the coordinator's own
	// reclaim; serve them by starting a fresh inter acquisition.
	c.maybeRequestInter()
}

// onIntraPending fires when a local application request is blocked by the
// coordinator's possession of the intra token.
func (c *Coordinator) onIntraPending() {
	c.maybeRequestInter()
}

// onInterAcquire fires when the inter token arrives: the cluster now owns
// the critical section right, so the coordinator opens the intra level.
func (c *Coordinator) onInterAcquire() {
	if c.state != WaitForIn {
		panic(fmt.Sprintf("core: coordinator %d acquired inter token in state %v", c.id, c.state))
	}
	c.transition(In)
	c.stats.InterAcquisitions++
	// Hand the intra token to the waiting application process.
	c.intra.Release()
	// Other clusters may already be queued behind this acquisition.
	c.maybeReclaimIntra()
}

// onInterPending fires when another coordinator's request is blocked by
// this coordinator's possession of the inter token.
func (c *Coordinator) onInterPending() {
	c.maybeReclaimIntra()
}

// maybeRequestInter starts an inter acquisition if the coordinator is OUT
// and local requests are pending (lines 8-9 of figure 2).
func (c *Coordinator) maybeRequestInter() {
	if c.state == Out && c.intra.HasPending() {
		c.transition(WaitForIn)
		c.inter.Request()
	}
}

// maybeReclaimIntra starts reclaiming the intra token if the coordinator
// is IN and another cluster wants the inter token (lines 15-16 of
// figure 2).
func (c *Coordinator) maybeReclaimIntra() {
	if c.state == In && c.inter.HasPending() {
		c.transition(WaitForOut)
		c.biasLeft = c.localBias
		c.intra.Request()
	}
}

// Isolate parks the coordinator when its cluster lands on the minority
// side of a partition. The inter claim — if any — has been forfeited at
// the recovery layer (the majority side will regenerate the token), so
// the automaton must stop treating it as owned: an IN coordinator
// reclaims the intra token at once, stopping local grants, and the
// completed reclaim parks OUT without an inter release. Local requests
// queue behind the reclaim; Reconnect re-issues the inter acquisition,
// so the frozen queue drains once the partition heals.
func (c *Coordinator) Isolate() {
	switch c.state {
	case In:
		c.forfeited = true
		c.transition(WaitForOut)
		c.biasLeft = 0
		c.intra.Request()
	case WaitForOut:
		// The reclaim is already running; cancel any bias rounds and
		// skip the handoff when it completes.
		c.forfeited = true
		c.biasLeft = 0
	}
	// Out, WaitForIn, Booting: no claim to surrender. A WAIT_FOR_IN
	// request stays recorded at the minority-frozen inter member and is
	// re-issued by the resync epoch.
}

// Reconnect resumes the coordinator after its cluster rejoined the
// majority: if local requests queued up during the freeze, start the
// inter acquisition for them.
func (c *Coordinator) Reconnect() {
	c.maybeRequestInter()
}
