// Package recovery adds crash tolerance to the token algorithms and their
// composition: a heartbeat-based failure detector and a token-regeneration
// controller, both driven entirely by virtual-time events so that faulty
// runs stay byte-identical per seed.
//
// # Model
//
// Every algorithm group (one per cluster for the intra level, one global
// group for the inter level) is wrapped in epochs. A Member owns the group
// endpoint of one process: it runs the underlying algorithm instance for
// the current epoch, tags every algorithm message with the epoch, and
// exchanges heartbeats with the other members. When the lowest-id live
// member (the leader) suspects a peer — no heartbeat within the timeout —
// it runs a probe round: every unsuspected member reports whether it holds
// the token or is inside the critical section, and fences its current
// epoch (buffering algorithm messages) so a token in flight cannot slip
// past the census. The leader then announces a new epoch: the surviving
// membership, plus the token position — the holder found by the census,
// or, when the token died with a crashed node, a deterministically chosen
// regeneration holder. Every member rebuilds its algorithm instance for
// the new membership and re-issues its own outstanding request; messages
// from dead epochs are dropped, messages from future epochs are buffered
// until the announcement arrives.
//
// # Owner state
//
// A Member implements mutex.Instance, so owners (the workload, the
// composition coordinator) drive it exactly like a raw algorithm
// instance. The member tracks the owner's state (idle / requested /
// in-CS) across epochs: a rebuild re-requests on behalf of a requesting
// owner and re-seats (with a suppressed duplicate OnAcquire) the token
// under an owner that is inside its critical section.
//
// # What is and is not survivable
//
// Crashes of application processes — including one holding the token,
// even inside its critical section — and of cluster coordinators (with a
// standby taking over, see Build) are survivable. A group whose
// HolderPrefs all crashed freezes: regenerating the intra token at an
// application process would let the cluster enter critical sections
// without the global (inter) token, so the leader announces a frozen
// epoch (Holder == None) and the group stops — safety over liveness.
//
// # Rejoin
//
// A restarted node comes back amnesiac: on the down→up edge the member
// discards all protocol state except the epoch ordinal (modeled as
// stable storage — any strictly greater epoch is accepted, so keeping a
// stale lower bound only tightens the fence against pre-crash traffic)
// and enters the rejoining state. While rejoining it sends heartbeats —
// so peers that still count it as a member rescind their suspicion — and
// Rejoin beacons to the full configured membership, but it is otherwise
// protocol-silent: it answers no probes, leads no rounds, and buffers
// future-epoch algorithm traffic. Peers record the beacon and exclude a
// pending joiner from leadership, census targets and epoch membership
// for one detector Timeout (the join cooldown): the delay guarantees the
// group's normal crash recovery — in particular a cluster's staggered
// intra-before-inter reconstruction of critical-section claims — has run
// its course before the joiner is folded back in. Once the cooldown
// elapses, the leader runs an ordinary probe round and announces an
// epoch whose membership includes the joiner; applying that epoch
// rebuilds the joiner's algorithm instance from the shared configuration
// (the resync — sparse request arrays and parent pointers are
// reconstructed consistently everywhere because every member rebuilds
// from the same membership and holder), fires the OnRejoin hooks so the
// composition layer can re-couple the bridge automaton, and ends the
// rejoining state. A joiner is always admitted state-less: amnesia
// cleared its claims, so its zero-valued census answer is truthful.
//
// # Partitions and minority freeze
//
// A network cut makes both sides suspect each other, which breaks the
// accuracy assumption regeneration rests on: if both sides censused and
// regenerated, the token would be doubled. Two quorum rules prevent it.
// First, a leader only announces an epoch when the surviving membership
// is a strict majority of the current epoch's membership; a census that
// ends below quorum freezes the member locally instead (minority
// freeze). Second, any member that can no longer hear a strict majority
// of its epoch's membership freezes without waiting to lead. A
// minority-frozen member discards its instance (stopping local grants —
// new owner requests are recorded in owner state, a queue bounded by one
// request per member), forfeits a critical-section claim through
// MemberConfig.OnMinority so the composition bridge can park, and beacons
// Rejoin like a restarted node. On heal the majority leader re-admits
// the strays through the join path; the resync epoch re-issues recorded
// requests, so the frozen queue drains in membership order, and
// pre-partition algorithm traffic is fenced off by its dead epoch.
// Liveness requires a majority side: a cut that leaves no strict
// majority freezes both sides until it heals (then the sides thaw by
// re-hearing each other and rebuild through a join round) — safety over
// liveness, exactly like the frozen-epoch rule.
//
// The failure detector is timeout-based, so safety of regeneration rests
// on the usual accuracy assumption: a live, reachable member is never
// suspected. Under the simulator latencies are bounded, so any Timeout
// exceeding the heartbeat period plus the maximum one-way delay makes the
// detector accurate in the absence of real crashes and partitions.
package recovery

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
)

// Clock is the virtual time source and timer a Member runs on. The DES
// simulator implements it.
type Clock interface {
	Now() des.Time
	After(d time.Duration, f func())
}

// Epoch identifies one membership-and-token generation of a group. Epochs
// are totally ordered by (Seq, Leader); a member accepts any strictly
// greater epoch, so two concurrent leaders (possible only under detector
// inaccuracy) converge to the maximum.
type Epoch struct {
	// Seq increments on every announcement.
	Seq uint32
	// Leader is the member that announced the epoch (None for the initial
	// epoch, which is never announced).
	Leader mutex.ID
}

// Less reports whether e precedes o in epoch order.
func (e Epoch) Less(o Epoch) bool {
	if e.Seq != o.Seq {
		return e.Seq < o.Seq
	}
	return e.Leader < o.Leader
}

// String renders the epoch compactly.
func (e Epoch) String() string { return fmt.Sprintf("e%d@%d", e.Seq, e.Leader) }

// Heartbeat is the periodic aliveness beacon.
type Heartbeat struct{}

// Kind implements mutex.Message.
func (Heartbeat) Kind() string { return "rec.hb" }

// Rejoin is the re-admission beacon: sent by an amnesiac restarted
// member, a minority-frozen member, and any member left without an
// algorithm instance (excluded by a false suspicion, or thawed from an
// even-split freeze), until an epoch folds the sender back in.
type Rejoin struct{}

// Kind implements mutex.Message.
func (Rejoin) Kind() string { return "rec.join" }

// Probe asks a member for its token census answer during round Round.
type Probe struct {
	Round uint32
	E     Epoch
}

// Kind implements mutex.Message.
func (Probe) Kind() string { return "rec.probe" }

// ProbeAck answers a Probe: does the member hold the token, and is its
// owner inside the critical section (or claiming it, see Member.AdoptCS)?
type ProbeAck struct {
	Round uint32
	Holds bool
	InCS  bool
}

// Kind implements mutex.Message.
func (ProbeAck) Kind() string { return "rec.ack" }

// NewEpoch announces an epoch: the surviving membership and the token
// position. Holder == None announces a frozen epoch (see package doc).
type NewEpoch struct {
	E       Epoch
	Members []mutex.ID
	Holder  mutex.ID
}

// Kind implements mutex.Message.
func (NewEpoch) Kind() string { return "rec.epoch" }

// Wrapped carries an algorithm message tagged with its epoch. It is
// transparent for tracing and counters: its kind is the inner kind.
type Wrapped struct {
	E     Epoch
	Inner mutex.Message
}

// Kind implements mutex.Message.
func (w Wrapped) Kind() string { return w.Inner.Kind() }

// DetectorMessages totals, from a per-kind message count such as simnet's
// Counters.ByKind, the traffic the recovery layer adds on its own: the
// five control kinds above (Wrapped counts under its inner kind).
func DetectorMessages(byKind map[string]int64) int64 {
	var n int64
	for _, m := range [...]mutex.Message{Heartbeat{}, Rejoin{}, Probe{}, ProbeAck{}, NewEpoch{}} {
		n += byKind[m.Kind()]
	}
	return n
}

// Options tune the failure detector.
type Options struct {
	// Period is the heartbeat interval. Default 50ms.
	Period time.Duration
	// Timeout is the silence after which a peer is suspected. It must
	// exceed Period plus the maximum one-way delay, or live members are
	// falsely suspected. Default 4×Period.
	Timeout time.Duration
	// ProbeTimeout bounds one probe round; unanswered members are
	// suspected and the round retried without them. Rounds normally finish
	// early, on the last ack. Default Timeout.
	ProbeTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Period <= 0 {
		o.Period = 50 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 4 * o.Period
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.Timeout
	}
	return o
}

// GroupConfig describes one recovery group: what every member shares.
type GroupConfig struct {
	// Name names the group, for observers and tracing.
	Name string
	// Members and Holder describe the initial epoch exactly like a
	// mutex.Config.
	Members []mutex.ID
	Holder  mutex.ID
	// Factory builds the underlying algorithm instance, once per epoch.
	Factory mutex.Factory
	// Clock drives heartbeats and timeouts.
	Clock Clock
	// HolderPrefs, when non-empty, restricts token regeneration to these
	// members in preference order; if none survives, the group freezes.
	// Empty means "lowest-id live member" — safe only when any member may
	// hold the token idle (true for the inter group, false for intra
	// groups, whose token must stay with a coordinator when no
	// application holds it).
	HolderPrefs []mutex.ID
	// Opts tunes the failure detector.
	Opts Options
	// Down, when non-nil, reports whether member id's node is currently
	// crashed — the oracle that keeps a dead node's virtual timers from
	// doing protocol work (simnet already suppresses its messages).
	// Build reads a member's id as its node in BuildOptions.NodeDown.
	Down func(id mutex.ID) bool
	// OnEpoch, when non-nil, observes every epoch application of every
	// member, before the member's own MemberConfig.OnEpoch — the hook
	// monitors and tracers attach to.
	OnEpoch func(group string, self mutex.ID, e Epoch, members []mutex.ID, holder mutex.ID)
	// OnRejoin, when non-nil, observes every re-admission of a restarted
	// member, after the member's own MemberConfig.OnRejoin.
	OnRejoin func(group string, self mutex.ID, e Epoch)
}

// Group is what the members of one recovery group share, built once by
// NewGroup and only read afterwards: every Member of the group points at it.
type Group struct {
	name    string
	members []mutex.ID // the configured membership, sorted
	// pos[id-members[0]] is id's index in members, or -1 for an id in the
	// span that is not a member.
	pos     []int32
	holder  mutex.ID // of the initial epoch
	factory mutex.Factory
	clock   Clock
	prefs   []mutex.ID // HolderPrefs
	opts    Options    // with defaults applied
	// The group's hooks, called by each member with its own id.
	down     func(mutex.ID) bool
	onEpoch  func(group string, self mutex.ID, e Epoch, members []mutex.ID, holder mutex.ID)
	onRejoin func(group string, self mutex.ID, e Epoch)
}

// NewGroup checks a group's configuration and builds its shared state.
func NewGroup(cfg GroupConfig) (*Group, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("recovery: nil factory")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("recovery: nil clock")
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("recovery: empty membership")
	}
	members := slices.Clone(cfg.Members)
	slices.Sort(members)
	g := &Group{
		name: cfg.Name, members: members, holder: cfg.Holder, factory: cfg.Factory,
		clock: cfg.Clock, prefs: cfg.HolderPrefs, opts: cfg.Opts.withDefaults(),
		down: cfg.Down, onEpoch: cfg.OnEpoch, onRejoin: cfg.OnRejoin,
		pos: make([]int32, members[len(members)-1]-members[0]+1),
	}
	for i := range g.pos {
		g.pos[i] = -1
	}
	for i, id := range members {
		g.pos[id-members[0]] = int32(i)
	}
	return g, nil
}

// MemberConfig wires one member of a group: what it owns alone.
type MemberConfig struct {
	// Self is the member's participant id, one of the group's Members.
	Self mutex.ID
	// Env is the group's network endpoint (for a composed process, the
	// per-level env of its core.Process).
	Env mutex.Env
	// Callbacks are the owner's callbacks; SetCallbacks can replace them
	// later (standby takeover).
	Callbacks mutex.Callbacks
	// OnEpoch, when non-nil, is this member's role hook: it fires after
	// this member applies an epoch, after the group's OnEpoch observer and
	// before buffered future-epoch messages are flushed, so a standby
	// taking over installs its callbacks ahead of any queued request.
	OnEpoch func(e Epoch, members []mutex.ID, holder mutex.ID)
	// OnRejoin, when non-nil, is this member's role hook for a
	// re-admission after a restart: the admitting epoch has been applied
	// and the fresh instance built, but neither the group's OnRejoin
	// observer, OnEpoch nor the future-message flush has run yet. The
	// composition layer uses it to re-couple the bridge (a restarted
	// primary rebuilds its coordinator, or rejoins passively when its
	// standby already took over).
	OnRejoin func(e Epoch, members []mutex.ID, holder mutex.ID)
	// OnMinority, when non-nil, marks this member as a composition-bridge
	// endpoint. Entering the minority-frozen state then forfeits an in-CS
	// claim (the majority side will regenerate the token, and two claims
	// must not coexist after the heal) and fires OnMinority(true) so the
	// bridge can park; OnMinority(false) fires on thaw. Leave nil for
	// application-owned members: they keep their claim, which is safe
	// because a group without a majority anywhere never regenerates.
	OnMinority func(entered bool)
}

// Stats counts recovery activity of one member: its counters, and three
// state flags read when the snapshot is taken.
type Stats struct {
	counters
	// Frozen reports whether the member's group froze (no preferred
	// holder survived).
	Frozen bool
	// Minority reports whether the member is currently minority-frozen.
	Minority bool
	// Rejoining reports whether the member is awaiting re-admission
	// after a restart.
	Rejoining bool
}

// counters are the Stats a member keeps; their fields are promoted to Stats.
type counters struct {
	// Epochs is how many announcements this member applied.
	Epochs int64
	// Regenerations is how many epochs this member announced with a
	// regenerated (not census-found) holder.
	Regenerations int64
	// Rounds is how many probe rounds this member led.
	Rounds int64
	// Suspicions is how many peers this member suspected.
	Suspicions int64
	// StaleDropped counts dead-epoch messages dropped.
	StaleDropped int64
	// FencedDropped counts messages fenced during a probe round whose
	// epoch was then superseded.
	FencedDropped int64
	// HeartbeatsSent counts heartbeats emitted.
	HeartbeatsSent int64
	// Restarts counts down→up edges: each makes the member amnesiac and
	// starts a rejoin (see package doc).
	Restarts int64
	// Rejoins counts completed re-admissions after a restart.
	Rejoins int64
	// MinorityFreezes counts entries into the minority-frozen state.
	MinorityFreezes int64
}

type ownerState uint8

const (
	ownerIdle ownerState = iota
	ownerRequested
	ownerInCS
)

type bufferedMsg struct {
	from mutex.ID
	msg  Wrapped
}

// joinBid tracks one peer's Rejoin beacons: first starts the join
// cooldown, last detects a joiner that died again mid-join.
type joinBid struct {
	first des.Time
	last  des.Time
}

// peer is the failure detector's state for one configured member: the
// instant it was last heard, complemented (^heardAt, so negative) while it
// is suspected. Virtual time is never negative, so the sign is free.
type peer des.Time

func newPeer(heardAt des.Time, suspect bool) peer {
	if suspect {
		return ^peer(heardAt)
	}
	return peer(heardAt)
}

func (p peer) suspect() bool { return p < 0 }

// heardAt is whichever of p and ^p is not negative.
func (p peer) heardAt() des.Time { return des.Time(max(p, ^p)) }

// census is a member's fault-handling state: its probe rounds, the fence,
// buffered future-epoch traffic and pending joiners. A member allocates it
// on its first probe round, fence, future-epoch message or Rejoin beacon,
// so a member of a fault-free group never does; every read takes a nil
// census as empty.
type census struct {
	round     uint32
	fenceGen  uint64
	acks      map[mutex.ID]ProbeAck
	targets   []mutex.ID
	fencedBuf []bufferedMsg
	future    []bufferedMsg
	// pendingJoin holds the Rejoin beacons of joiners not yet admitted.
	pendingJoin map[mutex.ID]joinBid
}

// takeFenced empties the fence buffer and returns what it held.
func (c *census) takeFenced() []bufferedMsg {
	if c == nil {
		return nil
	}
	buf := c.fencedBuf
	c.fencedBuf = nil
	return buf
}

// Member is one process's endpoint of a crash-tolerant group: a
// mutex.Instance that runs the configured algorithm under the current
// epoch and the failure detector that advances epochs. All entry points
// run on the owner's serial context (DES event handlers).
type Member struct {
	g     *Group
	cfg   MemberConfig // Callbacks replaced by SetCallbacks
	inner mutex.Instance
	live  []mutex.ID // sorted membership of the current epoch

	// Detector state, dense — a delivered heartbeat costs two loads, not
	// three hashed lookups: peers[i] is the state of the group's members[i],
	// found through its pos table.
	peers  []peer
	tickFn func() // m.tick, bound once: re-arming allocates no method value

	cs    *census // nil until a fault needs it
	stats counters

	epoch  Epoch
	holder mutex.ID // initial holder of the current epoch
	owner  ownerState

	suppressAcquire  bool
	releaseOnAcquire bool
	// probing and fenced stay out of the census: the delivery path reads
	// them on every message.
	probing   bool
	fenced    bool
	frozen    bool
	started   bool
	stopped   bool
	wasDown   bool
	rejoining bool
	minority  bool
}

// census returns the member's fault-handling state, allocating it on
// first use.
func (m *Member) census() *census {
	if m.cs == nil {
		m.cs = new(census)
	}
	return m.cs
}

// NewMember builds a member of g and its initial-epoch algorithm instance.
// Call Start to begin heartbeating.
func (g *Group) NewMember(cfg MemberConfig) (*Member, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("recovery: nil env")
	}
	m := &Member{
		g:      g,
		cfg:    cfg,
		epoch:  Epoch{Seq: 0, Leader: mutex.None},
		holder: g.holder,
		peers:  make([]peer, len(g.members)),
	}
	m.setLive(g.members)
	if err := m.buildInner(); err != nil {
		return nil, err
	}
	return m, nil
}

// ID returns the member's participant id.
func (m *Member) ID() mutex.ID { return m.cfg.Self }

// Group returns the configured group name.
func (m *Member) Group() string { return m.g.name }

// Epoch returns the current epoch.
func (m *Member) Epoch() Epoch { return m.epoch }

// Stats returns a snapshot of recovery activity.
func (m *Member) Stats() Stats {
	return Stats{counters: m.stats, Frozen: m.frozen, Minority: m.minority, Rejoining: m.rejoining}
}

// SetCallbacks replaces the owner callbacks — the hook a standby
// coordinator uses when it takes over a crashed primary's groups.
func (m *Member) SetCallbacks(cbs mutex.Callbacks) { m.cfg.Callbacks = cbs }

// Start begins heartbeating and failure detection.
func (m *Member) Start() {
	if m.started {
		panic(fmt.Sprintf("recovery: member %d of %s started twice", m.cfg.Self, m.g.name))
	}
	m.started = true
	m.tickFn = m.tick
	m.g.clock.After(m.g.opts.Period, m.tickFn)
}

// Stop halts the detector: the current tick chain ends and no further
// timers are armed, so a driven simulation can drain.
func (m *Member) Stop() { m.stopped = true }

// buildInner constructs the algorithm instance for the current epoch.
// Callbacks and the env are epoch-stamped: a superseded instance's late
// local upcalls are ignored and its late sends dropped by receivers.
func (m *Member) buildInner() error {
	env := &epochEnv{m: m, e: m.epoch}
	inst, err := m.g.factory(mutex.Config{
		Self:      m.cfg.Self,
		Members:   m.live,
		Holder:    m.holder,
		Env:       env,
		Callbacks: mutex.Callbacks{OnAcquire: env.onAcquire, OnPending: env.onPending},
	})
	if err != nil {
		return fmt.Errorf("recovery: %s instance for %d in %v: %w", m.g.name, m.cfg.Self, env.e, err)
	}
	m.inner = inst
	return nil
}

// epochEnv is one epoch's instance's env and callbacks: it tags every send
// with the epoch, so receivers can tell live traffic from a dead instance's
// stragglers, and passes an upcall on only while its epoch is current.
type epochEnv struct {
	m *Member
	e Epoch
}

func (e *epochEnv) Send(to mutex.ID, msg mutex.Message) {
	e.m.cfg.Env.Send(to, Wrapped{E: e.e, Inner: msg})
}

func (e *epochEnv) Local(f func()) { e.m.cfg.Env.Local(f) }

func (e *epochEnv) onAcquire() {
	if e.m.epoch == e.e {
		e.m.onInnerAcquire()
	}
}

func (e *epochEnv) onPending() {
	if e.m.epoch == e.e && e.m.cfg.Callbacks.OnPending != nil {
		e.m.cfg.Callbacks.OnPending()
	}
}

func (m *Member) onInnerAcquire() {
	if m.releaseOnAcquire {
		// The owner released while an epoch rebuild's re-acquire was in
		// flight: drop the critical section the moment it lands.
		m.releaseOnAcquire = false
		m.suppressAcquire = false
		m.inner.Release()
		return
	}
	if m.suppressAcquire {
		// The re-acquire of an epoch rebuild (or an AdoptCS claim): the
		// owner is already in its critical section.
		m.suppressAcquire = false
		return
	}
	if m.owner != ownerRequested {
		panic(fmt.Sprintf("recovery: member %d of %s granted with owner state %d", m.cfg.Self, m.g.name, m.owner))
	}
	m.owner = ownerInCS
	if m.cfg.Callbacks.OnAcquire != nil {
		m.cfg.Callbacks.OnAcquire()
	}
}

// Request implements mutex.Instance.
func (m *Member) Request() {
	if m.owner != ownerIdle {
		panic(fmt.Sprintf("recovery: member %d of %s requested in owner state %d", m.cfg.Self, m.g.name, m.owner))
	}
	m.owner = ownerRequested
	if m.inner != nil {
		m.inner.Request()
	}
	// With no instance (excluded or frozen) the request is recorded in the
	// owner state; a future epoch re-issues it.
}

// Release implements mutex.Instance.
func (m *Member) Release() {
	if m.owner != ownerInCS {
		panic(fmt.Sprintf("recovery: member %d of %s released in owner state %d", m.cfg.Self, m.g.name, m.owner))
	}
	m.owner = ownerIdle
	if m.inner == nil {
		return
	}
	if m.inner.State() == mutex.InCS {
		m.inner.Release()
		return
	}
	// An epoch rebuild's re-acquire (or an AdoptCS claim) has not landed
	// yet; release it on arrival.
	m.releaseOnAcquire = true
}

// AdoptCS transfers a crashed peer's critical-section claim to this
// member without a grant: the owner state becomes in-CS, so the next
// probe census regenerates the token here and the suppressed re-acquire
// seats it. A standby coordinator uses this to inherit its dead primary's
// inter-token possession while the cluster's intra token is still out
// serving an application.
func (m *Member) AdoptCS() {
	if m.owner != ownerIdle {
		panic(fmt.Sprintf("recovery: member %d of %s adopted CS in owner state %d", m.cfg.Self, m.g.name, m.owner))
	}
	m.owner = ownerInCS
	if m.inner != nil && m.inner.State() == mutex.NoReq {
		m.suppressAcquire = true
		m.inner.Request()
	}
}

// HasPending implements mutex.Instance.
func (m *Member) HasPending() bool { return m.inner != nil && m.inner.HasPending() }

// HoldsToken implements mutex.Instance.
func (m *Member) HoldsToken() bool { return m.inner != nil && m.inner.HoldsToken() }

// State implements mutex.Instance, derived from the owner state (which
// survives epoch rebuilds, unlike the instance's own state).
func (m *Member) State() mutex.State {
	switch m.owner {
	case ownerRequested:
		return mutex.Req
	case ownerInCS:
		return mutex.InCS
	default:
		return mutex.NoReq
	}
}

// down reports whether this member's own node is crashed.
func (m *Member) down() bool { return m.g.down != nil && m.g.down(m.cfg.Self) }

// tick is the heartbeat-period heartbeat/suspect/lead step.
func (m *Member) tick() {
	if m.stopped {
		return
	}
	if m.down() {
		m.wasDown = true
		m.g.clock.After(m.g.opts.Period, m.tickFn)
		return
	}
	if m.wasDown {
		// The node restarted: it comes back amnesiac and earns its way
		// back in through the rejoin path (see package doc).
		m.wasDown = false
		m.amnesia()
	}
	for _, id := range m.live {
		if id == m.cfg.Self {
			continue
		}
		m.cfg.Env.Send(id, Heartbeat{})
		m.stats.HeartbeatsSent++
	}
	if !m.frozen && !m.rejoining {
		now := m.g.clock.Now()
		for _, id := range m.live {
			p := m.peerOf(id)
			if id == m.cfg.Self || p.suspect() {
				continue
			}
			if now-p.heardAt() > m.g.opts.Timeout {
				*p = newPeer(p.heardAt(), true)
				m.stats.Suspicions++
			}
		}
	}
	if m.rejoining || m.minority || (m.inner == nil && !m.frozen) {
		// Beacon for (re-)admission: an amnesiac rejoiner, a
		// minority-frozen member, and any member left without an
		// instance (false-suspicion exclusion, even-split thaw) all
		// need an epoch to fold them back in.
		for _, id := range m.g.members {
			if id != m.cfg.Self {
				m.cfg.Env.Send(id, Rejoin{})
			}
		}
	}
	switch {
	case m.rejoining:
		// Protocol-silent until an epoch admits us.
	case m.minority:
		// Re-check the quorum: after an even split — both sides frozen,
		// no epoch ever announced — the heal lets the sides re-hear
		// each other (heartbeats rescind suspicion), and the group is
		// rebuilt through the beacon path above.
		if 2*m.reachable() > len(m.live) {
			m.exitMinority()
		}
	case m.frozen:
		// A frozen group revives only when a preferred holder rejoins.
		if !m.probing && m.isLeader() && m.anyJoinReady() {
			m.startRound()
		}
	case 2*m.reachable() <= len(m.live):
		// This member can no longer hear a strict majority of its
		// epoch's membership: it may sit on the losing side of a
		// partition whose majority is about to regenerate. Freeze now —
		// the cut costs one detector Timeout to notice, while the
		// majority's census needs Timeout plus a probe round, so the
		// freeze always lands first.
		m.enterMinority()
	default:
		if !m.probing && m.isLeader() && (m.anySuspectLive() || m.anyJoinReady()) {
			m.startRound()
		}
	}
	m.g.clock.After(m.g.opts.Period, m.tickFn)
}

// amnesia resets the member on the down→up edge: every piece of protocol
// state is discarded except the epoch ordinal (modeled as stable storage
// — a stale lower bound only tightens the fence against pre-crash
// traffic) and the owner callbacks (the restarted process re-registers
// the same handlers; the composition layer swaps them via OnRejoin).
func (m *Member) amnesia() {
	m.rejoining = true
	m.stats.Restarts++
	m.minority = false
	m.frozen = false
	m.inner = nil
	m.owner = ownerIdle
	m.suppressAcquire = false
	m.releaseOnAcquire = false
	m.probing = false
	m.fenced = false
	if c := m.cs; c != nil {
		// The round and fence counters stay: a timer armed before the
		// crash must not match a round or fence started after it.
		*c = census{round: c.round, fenceGen: c.fenceGen}
	}
	m.setLive(m.g.members)
}

// peerOf returns the detector state of a configured member, nil for any
// other id.
func (m *Member) peerOf(id mutex.ID) *peer {
	g := m.g
	if i := int(id - g.members[0]); i >= 0 && i < len(g.pos) && g.pos[i] >= 0 {
		return &m.peers[g.pos[i]]
	}
	return nil
}

// setLive installs a membership — ids, which the member keeps and, like the
// instance built on it, only reads — with every suspicion cleared and every
// live member counted as heard now.
func (m *Member) setLive(ids []mutex.ID) {
	m.live = ids
	clear(m.peers)
	now := m.g.clock.Now()
	for _, id := range ids {
		// Never nil: epochs are censused from live members and Rejoin
		// senders of this group, all configured with the same membership.
		*m.peerOf(id) = newPeer(now, false)
	}
}

// reachable counts the current-epoch members this member can still hear,
// itself included.
func (m *Member) reachable() int {
	n := 0
	for _, id := range m.live {
		if id == m.cfg.Self || !m.peerOf(id).suspect() {
			n++
		}
	}
	return n
}

// enterMinority freezes a member that may sit on the losing side of a
// partition (or that censused a sub-majority survivor set): safety over
// liveness — see the package doc.
func (m *Member) enterMinority() {
	if m.minority {
		return
	}
	m.minority = true
	m.stats.MinorityFreezes++
	m.probing = false
	// The instance dies: no grant may be issued from a side the majority
	// may have censused out. Owner requests stay recorded in owner state
	// — the bounded frozen queue — and the resync epoch re-issues them.
	m.inner = nil
	m.stats.FencedDropped += int64(len(m.cs.takeFenced()))
	m.fenced = false
	if m.cfg.OnMinority != nil {
		// A composition bridge forfeits its critical-section claim: the
		// majority regenerates, and two claims must not meet at heal.
		if m.owner == ownerInCS {
			m.owner = ownerIdle
		}
		m.cfg.OnMinority(true)
	}
}

// exitMinority thaws a minority-frozen member; the instance is rebuilt
// by the resync epoch (the beacon path requests one).
func (m *Member) exitMinority() {
	m.minority = false
	if m.cfg.OnMinority != nil {
		m.cfg.OnMinority(false)
	}
}

// joinFresh reports whether a pending joiner is still beaconing.
func (m *Member) joinFresh(b joinBid) bool {
	return time.Duration(m.g.clock.Now()-b.last) <= m.g.opts.Timeout
}

// joinReady reports whether a pending joiner's cooldown has elapsed: one
// detector Timeout of beaconing, so the group's normal crash recovery —
// in particular the staggered intra-before-inter reconstruction of
// critical-section claims — finishes before the joiner is folded in.
func (m *Member) joinReady(b joinBid) bool {
	return time.Duration(m.g.clock.Now()-b.first) >= m.g.opts.Timeout
}

func (m *Member) anyJoinReady() bool {
	if m.cs == nil {
		return false
	}
	//lint:allow dettaint order-independent: a pure OR over the entries, no state or sends
	for _, b := range m.cs.pendingJoin {
		if m.joinFresh(b) && m.joinReady(b) {
			return true
		}
	}
	return false
}

// isLeader reports whether this member runs probe rounds and announces
// epochs: the lowest-id unsuspected live member, skipping pending
// joiners (an amnesiac is protocol-silent, so it can neither lead nor be
// allowed to block leadership). If every candidate is a pending joiner —
// an even-split thaw, where the whole group beacons for a resync — the
// skip is waived so someone can lead the rebuild.
func (m *Member) isLeader() bool {
	fallback := mutex.None
	for _, id := range m.live {
		if m.peerOf(id).suspect() {
			continue
		}
		if fallback == mutex.None {
			fallback = id
		}
		if m.cs != nil {
			if b, ok := m.cs.pendingJoin[id]; ok && m.joinFresh(b) {
				continue
			}
		}
		return id == m.cfg.Self
	}
	return fallback == m.cfg.Self
}

func (m *Member) anySuspectLive() bool {
	for _, id := range m.live {
		if m.peerOf(id).suspect() {
			return true
		}
	}
	return false
}

// heard records aliveness evidence from a peer.
func (m *Member) heard(from mutex.ID) {
	p := m.peerOf(from)
	if p == nil {
		// Not a configured member: hearing it proves nothing about this
		// group, and only the Rejoin beacon path admits anyone.
		return
	}
	// A false suspicion clears unless a round is acting on it.
	*p = newPeer(m.g.clock.Now(), p.suspect() && m.probing)
}

// fence starts (or re-arms) the probe fence: current-epoch algorithm
// messages are buffered so a token in flight cannot slip past the census.
// If no announcement ends the fence — the round was aborted or its leader
// died — the buffer is flushed after a conservative deadline, preserving
// the token.
func (m *Member) fence() {
	m.fenced = true
	m.census().fenceGen++
	gen := m.cs.fenceGen
	m.g.clock.After(m.g.opts.ProbeTimeout+m.g.opts.Timeout, func() {
		if m.stopped || !m.fenced || gen != m.cs.fenceGen {
			return
		}
		m.fenced = false
		for _, b := range m.cs.takeFenced() {
			if b.msg.E == m.epoch && m.inner != nil {
				m.inner.Deliver(b.from, b.msg.Inner)
			} else {
				m.stats.FencedDropped++
			}
		}
	})
}

// startRound begins a probe round: census every unsuspected live peer.
func (m *Member) startRound() {
	c := m.census()
	m.probing = true
	c.round++
	m.stats.Rounds++
	m.fence()
	c.acks = map[mutex.ID]ProbeAck{
		m.cfg.Self: {Round: c.round, Holds: m.HoldsToken(), InCS: m.owner == ownerInCS},
	}
	c.targets = c.targets[:0]
	for _, id := range m.live {
		if id == m.cfg.Self || m.peerOf(id).suspect() {
			continue
		}
		if b, ok := c.pendingJoin[id]; ok && m.joinFresh(b) {
			// A pending joiner answers no probes, and its state-less
			// census answer is implied — skip it so the round need not
			// time out on it.
			continue
		}
		c.targets = append(c.targets, id)
	}
	if len(c.targets) == 0 {
		m.finishRound()
		return
	}
	for _, id := range c.targets {
		m.cfg.Env.Send(id, Probe{Round: c.round, E: m.epoch})
	}
	round := c.round
	m.g.clock.After(m.g.opts.ProbeTimeout, func() { m.roundTimeout(round) })
}

func (m *Member) roundTimeout(round uint32) {
	// A member probes only once it has a census.
	if m.stopped || m.down() || !m.probing || round != m.cs.round {
		return
	}
	// Unanswered members are suspected; retry with the smaller target set
	// (the round count is bounded by the membership size).
	missing := false
	for _, id := range m.cs.targets {
		if _, ok := m.cs.acks[id]; !ok {
			if p := m.peerOf(id); !p.suspect() {
				*p = newPeer(p.heardAt(), true)
				m.stats.Suspicions++
			}
			missing = true
		}
	}
	m.probing = false
	if !m.isLeader() {
		// Leadership moved (a lower id came back): abandon the round and
		// let the fence deadline flush the buffer.
		return
	}
	if missing {
		m.startRound()
		return
	}
	m.probing = true
	m.finishRound()
}

func (m *Member) allAcked() bool {
	for _, id := range m.cs.targets {
		if _, ok := m.cs.acks[id]; !ok {
			return false
		}
	}
	return true
}

// finishRound turns the census into an epoch announcement.
func (m *Member) finishRound() {
	c := m.cs
	m.probing = false
	var newLive []mutex.ID
	for _, id := range m.live {
		if m.peerOf(id).suspect() {
			continue
		}
		if b, ok := c.pendingJoin[id]; ok && m.joinFresh(b) && !m.joinReady(b) {
			// Mid-cooldown joiner: keep it out of this epoch; the join
			// round after its cooldown admits it.
			continue
		}
		newLive = append(newLive, id)
	}
	// Fold in the joiners whose cooldown elapsed. A joiner is always
	// admitted state-less — amnesia (or the minority forfeit) cleared its
	// claims — so skipping its census answer is sound. Iterate sorted for
	// determinism; prune entries whose beacons lapsed (died again).
	joiners := make([]mutex.ID, 0, len(c.pendingJoin))
	for id := range c.pendingJoin {
		joiners = append(joiners, id)
	}
	sort.Slice(joiners, func(i, j int) bool { return joiners[i] < joiners[j] })
	for _, id := range joiners {
		b := c.pendingJoin[id]
		if !m.joinFresh(b) {
			delete(c.pendingJoin, id)
			continue
		}
		if !m.joinReady(b) {
			continue
		}
		if !containsID(newLive, id) {
			newLive = append(newLive, id)
		}
		delete(c.pendingJoin, id)
	}
	sort.Slice(newLive, func(i, j int) bool { return newLive[i] < newLive[j] })
	// Quorum gate: announcing an epoch from a sub-majority survivor set
	// would double the token if the other side of a partition does the
	// same — freeze locally instead and wait for the heal.
	if 2*len(newLive) <= len(m.live) {
		m.enterMinority()
		return
	}
	// The regeneration holder: the first preferred member alive, or with no
	// preferences the lowest-id survivor (the gate leaves at least one).
	regen := newLive[0]
	if len(m.g.prefs) > 0 {
		regen = mutex.None
		for _, p := range m.g.prefs {
			if containsID(newLive, p) {
				regen = p
				break
			}
		}
	}
	// Token position: a member inside (or claiming) the critical section
	// wins, then an idle holder. Census answers exist for every survivor —
	// unanswered members were suspected out by roundTimeout.
	holder := mutex.None
	for _, id := range newLive {
		if c.acks[id].InCS {
			holder = id
			break
		}
	}
	if holder == mutex.None {
		for _, id := range newLive {
			if c.acks[id].Holds {
				holder = id
				break
			}
		}
	}
	switch {
	case regen == mutex.None:
		// With holder preferences configured, every preferred member dead
		// means the group can no longer be coordinated (for an intra group:
		// both the primary and the standby are gone) — freeze it even if an
		// application still holds the token, or the applications would keep
		// circulating the intra token with nothing coupling them to the
		// inter level.
		holder = mutex.None
	case holder == mutex.None:
		// The token died with a crashed node: regenerate deterministically.
		holder = regen
		m.stats.Regenerations++
	}
	m.announce(NewEpoch{
		E:       Epoch{Seq: m.epoch.Seq + 1, Leader: m.cfg.Self},
		Members: newLive,
		Holder:  holder,
	})
}

// announce sends an epoch to every survivor and applies it locally.
func (m *Member) announce(ne NewEpoch) {
	for _, id := range ne.Members {
		if id != m.cfg.Self {
			m.cfg.Env.Send(id, ne)
		}
	}
	m.applyNewEpoch(ne)
}

// applyNewEpoch installs a strictly greater epoch: new membership, a fresh
// algorithm instance, owner-state reconciliation, buffered-message flush.
func (m *Member) applyNewEpoch(ne NewEpoch) {
	if !m.epoch.Less(ne.E) {
		m.stats.StaleDropped++
		return
	}
	m.epoch = ne.E
	m.stats.Epochs++
	m.setLive(append([]mutex.ID(nil), ne.Members...))
	m.holder = ne.Holder
	m.probing = false
	m.suppressAcquire = false
	m.releaseOnAcquire = false
	// The fence dies with its epoch: everything it buffered is stale.
	m.stats.FencedDropped += int64(len(m.cs.takeFenced()))
	m.fenced = false
	if m.cs != nil {
		// An admitted joiner is folded back in by this epoch.
		for _, id := range m.live {
			delete(m.cs.pendingJoin, id)
		}
	}
	m.frozen = ne.Holder == mutex.None
	switch {
	case m.frozen:
		m.inner = nil
	case !containsID(m.live, m.cfg.Self):
		// Excluded (a false suspicion): no instance; this member's owner
		// requests stay recorded but cannot be served until the beacon
		// path re-admits it.
		m.inner = nil
	default:
		if err := m.buildInner(); err != nil {
			// The factory accepted the initial shape; a strictly smaller
			// membership failing is a bug, not a runtime condition.
			panic(err)
		}
		switch m.owner {
		case ownerInCS:
			// The owner is inside its critical section: re-seat the token
			// under it, suppressing the duplicate grant.
			m.suppressAcquire = true
			m.inner.Request()
		case ownerRequested:
			m.inner.Request()
		}
	}
	if containsID(m.live, m.cfg.Self) {
		if m.minority {
			m.exitMinority()
		}
		if m.rejoining {
			// Re-admitted: the resync is this very epoch (every member
			// rebuilt its instance from the same membership and holder).
			m.rejoining = false
			m.stats.Rejoins++
			if m.cfg.OnRejoin != nil {
				m.cfg.OnRejoin(ne.E, append([]mutex.ID(nil), m.live...), m.holder)
			}
			if m.g.onRejoin != nil {
				m.g.onRejoin(m.g.name, m.cfg.Self, ne.E)
			}
		}
	}
	// Hooks before the flush: a standby taking over installs its callbacks
	// (and possibly an AdoptCS claim) ahead of queued traffic. The observer
	// and the role hook share one copy of the membership.
	if m.g.onEpoch != nil || m.cfg.OnEpoch != nil {
		members := append([]mutex.ID(nil), m.live...)
		if m.g.onEpoch != nil {
			m.g.onEpoch(m.g.name, m.cfg.Self, ne.E, members, m.holder)
		}
		if m.cfg.OnEpoch != nil {
			m.cfg.OnEpoch(ne.E, members, m.holder)
		}
	}
	if m.cs == nil {
		return
	}
	buf := m.cs.future
	m.cs.future = nil
	for _, b := range buf {
		switch {
		case b.msg.E == m.epoch:
			if m.inner != nil {
				m.inner.Deliver(b.from, b.msg.Inner)
			} else {
				m.stats.StaleDropped++
			}
		case m.epoch.Less(b.msg.E):
			m.cs.future = append(m.cs.future, b)
		default:
			m.stats.StaleDropped++
		}
	}
}

// Deliver implements mutex.Instance (and the handler contract): control
// messages drive the detector, Wrapped messages reach the current epoch's
// instance (or are buffered/dropped by epoch).
func (m *Member) Deliver(from mutex.ID, msg mutex.Message) {
	if m.stopped || m.down() {
		return
	}
	switch t := msg.(type) {
	case Heartbeat:
		m.heard(from)
	case Rejoin:
		m.heard(from)
		if m.rejoining || m.minority {
			// This member needs re-admission itself; it can't grant any.
			return
		}
		now := m.g.clock.Now()
		c := m.census()
		b, ok := c.pendingJoin[from]
		if !ok || !m.joinFresh(b) {
			// First beacon (or beacons lapsed — the joiner died again):
			// the cooldown starts here.
			b.first = now
		}
		b.last = now
		if c.pendingJoin == nil {
			c.pendingJoin = make(map[mutex.ID]joinBid)
		}
		c.pendingJoin[from] = b
	case Probe:
		m.heard(from)
		if m.rejoining || m.minority {
			// Protocol-silent: an amnesiac (or forfeited) answer would
			// be meaningless; rounds exclude this member from their
			// targets anyway.
			return
		}
		if t.E.Less(m.epoch) {
			m.stats.StaleDropped++
			return
		}
		// Census: fence the epoch and answer.
		m.fence()
		m.cfg.Env.Send(from, ProbeAck{Round: t.Round, Holds: m.HoldsToken(), InCS: m.owner == ownerInCS})
	case ProbeAck:
		m.heard(from)
		if !m.probing || t.Round != m.cs.round {
			return
		}
		m.cs.acks[from] = t
		if m.allAcked() {
			m.finishRound()
		}
	case NewEpoch:
		m.heard(from)
		m.applyNewEpoch(t)
	case Wrapped:
		m.heard(from)
		switch {
		case t.E == m.epoch:
			if m.fenced {
				m.cs.fencedBuf = append(m.cs.fencedBuf, bufferedMsg{from: from, msg: t})
				return
			}
			if m.inner == nil {
				m.stats.StaleDropped++
				return
			}
			m.inner.Deliver(from, t.Inner)
		case m.epoch.Less(t.E):
			c := m.census()
			c.future = append(c.future, bufferedMsg{from: from, msg: t})
		default:
			m.stats.StaleDropped++
		}
	default:
		panic(fmt.Sprintf("recovery: member %d of %s received %T", m.cfg.Self, m.g.name, msg))
	}
}

func containsID(ids []mutex.ID, id mutex.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
