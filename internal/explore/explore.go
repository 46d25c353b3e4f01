// Package explore is a stateless model checker for mutex.Instance sets:
// instead of the single FIFO ordering the discrete-event simulator
// produces, it drives a system of algorithm instances through *all*
// (bounded) delivery orderings of their messages, plus optional fault
// actions (duplication, loss), and checks the mutual exclusion properties
// on every schedule.
//
// The checker is stateless in the model-checking sense: algorithm
// instances cannot be snapshotted, so every schedule re-executes the
// system from its initial state. A schedule is a sequence of Choices
// (deliver the head of a link, duplicate it, drop it, issue a request,
// release the critical section); executions are deterministic, so a
// serialized schedule replays byte-for-byte.
//
// One scheduler is provided: ExploreDFS enumerates the choice tree
// depth-first, with a state-fingerprint cache pruning revisits, and every
// space the tests explore is exhausted rather than sampled. Violations
// come back as a Counterexample — a JSON-serializable schedule that Replay
// re-executes and Minimize shrinks.
package explore

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"gridmutex/internal/algorithms/algotest"
	"gridmutex/internal/check"
	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
)

// Options bound and shape an exploration.
type Options struct {
	// RequestsPerApp is how many critical sections each application
	// endpoint executes (default 1).
	RequestsPerApp int
	// MaxSteps bounds the length of one schedule (default 256).
	// Schedules cut at the bound count as truncated, not violating.
	MaxSteps int
	// MaxSchedules bounds how many schedules ExploreDFS executes
	// (default 100000).
	MaxSchedules int
	// MaxDuplicates and MaxDrops budget fault actions per schedule
	// (default 0: reliable exactly-once channels, only reordered).
	MaxDuplicates int
	MaxDrops      int
	// MaxCrashes budgets fail-stop crashes of application endpoints per
	// schedule (default 0). A crashed endpoint stops sending, its inbound
	// messages vanish, and it never releases a critical section it holds.
	// With crashes possible the exploration checks SAFETY ONLY: the
	// step-bounded liveness assertion and the terminal completion checks
	// are disabled, because losing the token to a crash legitimately
	// stalls the survivors of a bare algorithm (recovering is
	// internal/recovery's job, out of scope for the raw protocol model).
	MaxCrashes int
	// MaxRestarts budgets restarts of crashed endpoints per schedule
	// (default 0). A restart models internal/recovery's rejoin resync
	// epoch: every live member's instance is rebuilt from scratch (the
	// builder's rebuild hooks; see SetRebuild) with a designated holder
	// that is never the restarted node — its pre-crash token claim must
	// not resurrect — all in-flight messages are purged (the epoch fence
	// discards traffic from the previous epoch), members with an
	// outstanding request get it re-issued as a future request step, and
	// the restarted endpoint recovers the requests its crash forfeited.
	// Restarts are only enabled on crashed endpoints while no live member
	// is inside the critical section (cross-epoch CS adoption is the
	// recovery layer's business, out of scope for the raw protocol
	// model), so a positive budget is useless without MaxCrashes.
	MaxRestarts int
	// MaxPartitions budgets single-node partition cuts per schedule
	// (default 0). A cut isolates one endpoint: messages crossing it in
	// either direction are discarded when delivered (delivery-time
	// classification, like simnet), until a heal step removes the cut.
	// Like crashes, partitions make the exploration safety-only — the
	// token may die on the wire across the cut.
	MaxPartitions int
	// CheckTokenHolders enables the terminal quiescence check that
	// exactly WantTokenHolders application endpoints report
	// HoldsToken() — 1 for a flat token algorithm, 0 for a
	// permission-based one. Leave false for compositions, where tokens
	// legitimately rest at coordinators.
	CheckTokenHolders bool
	WantTokenHolders  int
}

// livenessBound is K of check.StepLiveness: with no message in flight, a
// waiting request must be granted within K further steps.
const livenessBound = 32

func (o Options) fill() Options {
	if o.RequestsPerApp <= 0 {
		o.RequestsPerApp = 1
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 256
	}
	if o.MaxSchedules <= 0 {
		o.MaxSchedules = 100000
	}
	return o
}

// faulty reports whether the options admit token-destroying faults, which
// makes the exploration safety-only (see MaxCrashes and MaxPartitions).
func (o Options) faulty() bool { return o.MaxCrashes > 0 || o.MaxPartitions > 0 }

// budget tracks the per-schedule fault allowances as they are consumed.
type budget struct {
	dups, drops, crashes, restarts, parts int
}

func (o Options) budget() budget {
	return budget{
		dups: o.MaxDuplicates, drops: o.MaxDrops,
		crashes: o.MaxCrashes, restarts: o.MaxRestarts, parts: o.MaxPartitions,
	}
}

// use consumes the budget a choice spends. OpHeal is free: every heal is
// preceded by a budgeted cut, so alternation stays bounded.
func (b *budget) use(c Choice) {
	switch c.Op {
	case OpDuplicate:
		b.dups--
	case OpDrop:
		b.drops--
	case OpCrash:
		b.crashes--
	case OpRestart:
		b.restarts--
	case OpPartition:
		b.parts--
	}
}

// String renders the remaining budget canonically for fingerprint keys.
func (b budget) String() string {
	return fmt.Sprintf("%d/%d/%d/%d/%d/", b.dups, b.drops, b.crashes, b.restarts, b.parts)
}

// app is one drivable application endpoint.
type app struct {
	id        mutex.ID
	inst      mutex.Instance
	remaining int // requests not yet issued
	lost      int // requests forfeited by a crash, restored on restart
	granted   int
	crashed   bool
	rebuild   func(holder mutex.ID) (mutex.Instance, error) // resync-epoch rebuild hook
}

// System is one freshly built instance of the model under exploration: a
// hand-stepped world plus the application endpoints whose Request/Release
// the scheduler chooses among. Builders construct the instances, register
// message routing on World, and declare drivable endpoints with AddApp.
type System struct {
	// World queues every send for the scheduler to order.
	World *algotest.World

	apps   []*app
	byID   map[mutex.ID]*app
	probes []func() string
	mon    *check.Monitor
	live   *check.StepLiveness
	steps  int
}

// NewSystem returns an empty system with a fresh world and monitor.
func NewSystem() *System {
	s := &System{World: algotest.NewWorld(), byID: make(map[mutex.ID]*app)}
	s.mon = check.NewMonitorWithClock(s)
	return s
}

// Now implements check.Clock: the schedule step counter, so violation
// messages name the step they occurred at.
func (s *System) Now() des.Time { return des.Time(s.steps) }

// Callbacks returns the mutex.Callbacks the application instance for id
// must be constructed with, so the explorer observes its critical section
// entries.
func (s *System) Callbacks(id mutex.ID) mutex.Callbacks {
	return mutex.Callbacks{OnAcquire: func() {
		a := s.byID[id]
		if a == nil {
			s.mon.Reportf("protocol: OnAcquire for unregistered app %d", id)
			return
		}
		if a.inst.State() != mutex.InCS {
			s.mon.Reportf("protocol: app %d OnAcquire fired but State() = %v", id, a.inst.State())
		}
		s.mon.Enter(id)
		a.granted++
	}}
}

// AddApp declares a drivable application endpoint. The instance must have
// been built with Callbacks(id).
func (s *System) AddApp(id mutex.ID, inst mutex.Instance) {
	if _, dup := s.byID[id]; dup {
		panic(fmt.Sprintf("explore: app %d added twice", id))
	}
	a := &app{id: id, inst: inst}
	s.apps = append(s.apps, a)
	s.byID[id] = a
}

// SetRebuild registers the resync-epoch rebuild hook for a drivable
// endpoint: a deterministic constructor of a fresh instance seeded with
// the designated epoch holder. OpRestart rebuilds EVERY live member
// through these hooks (the rejoin resync epoch reconstructs the group's
// inner state consistently everywhere), so restarts are only enabled
// when the restarting endpoint and all live endpoints have hooks.
func (s *System) SetRebuild(id mutex.ID, f func(holder mutex.ID) (mutex.Instance, error)) {
	a := s.byID[id]
	if a == nil {
		panic(fmt.Sprintf("explore: SetRebuild for unknown app %d", id))
	}
	a.rebuild = f
}

// AddProbe registers an extra fingerprint contributor. The default
// fingerprint only sees drivable apps and in-flight messages; builders for
// composed systems should register probes exposing the coordinator and
// level-instance state hidden behind the process dispatchers, so the
// pruning cache does not conflate states that differ only there.
func (s *System) AddProbe(f func() string) {
	s.probes = append(s.probes, f)
}

// Builder constructs a fresh System for one schedule execution. The
// checker is stateless — it rebuilds the system for every schedule — so
// the builder must be deterministic.
type Builder func() (*System, error)

// FlatBuilder returns a Builder for a flat n-participant instance of
// factory with member IDs 0..n-1 and participant 0 the initial holder.
// Every endpoint gets a rebuild hook, so restart steps (the resync-epoch
// model; see Options.MaxRestarts) are available under a MaxRestarts
// budget.
func FlatBuilder(factory mutex.Factory, n int) Builder {
	return func() (*System, error) {
		sys := NewSystem()
		members := make([]mutex.ID, n)
		for i := range members {
			members[i] = mutex.ID(i)
		}
		for _, id := range members {
			id := id
			inst, err := factory(mutex.Config{
				Self: id, Members: members, Holder: 0,
				Env: sys.World.Env(id), Callbacks: sys.Callbacks(id),
			})
			if err != nil {
				return nil, err
			}
			sys.World.Add(id, inst)
			sys.AddApp(id, inst)
			sys.SetRebuild(id, func(holder mutex.ID) (mutex.Instance, error) {
				return factory(mutex.Config{
					Self: id, Members: members, Holder: holder,
					Env: sys.World.Env(id), Callbacks: sys.Callbacks(id),
				})
			})
		}
		return sys, nil
	}
}

// anyInCS reports whether some live app is inside the critical section —
// restart steps are gated off such states (see Options.MaxRestarts).
func (s *System) anyInCS() bool {
	for _, a := range s.apps {
		if !a.crashed && a.inst.State() == mutex.InCS {
			return true
		}
	}
	return false
}

// allRebuildable reports whether every live app has a rebuild hook — the
// resync epoch rebuilds all of them, so one missing hook disables
// restarts entirely.
func (s *System) allRebuildable() bool {
	for _, a := range s.apps {
		if !a.crashed && a.rebuild == nil {
			return false
		}
	}
	return true
}

// waiting counts apps with an ungranted request.
func (s *System) waiting() int {
	n := 0
	for _, a := range s.apps {
		if !a.crashed && a.inst.State() == mutex.Req {
			n++
		}
	}
	return n
}

// Op is the kind of one schedule step.
type Op string

const (
	// OpDeliver delivers the head of link From→To (links are FIFO, as
	// the mutex.Env contract promises).
	OpDeliver Op = "deliver"
	// OpDuplicate re-enqueues a copy of the head of link From→To.
	OpDuplicate Op = "dup"
	// OpDrop discards the head of link From→To undelivered.
	OpDrop Op = "drop"
	// OpRequest makes app Node issue its next critical section request.
	OpRequest Op = "request"
	// OpRelease makes app Node leave the critical section.
	OpRelease Op = "release"
	// OpCrash fail-stops app Node (see Options.MaxCrashes).
	OpCrash Op = "crash"
	// OpRestart revives crashed app Node with a fresh amnesiac instance
	// (see Options.MaxRestarts).
	OpRestart Op = "restart"
	// OpPartition isolates app Node behind a cut (see
	// Options.MaxPartitions).
	OpPartition Op = "partition"
	// OpHeal removes the active cut.
	OpHeal Op = "heal"
)

// known reports whether o is one of the ops above.
func (o Op) known() bool {
	return slices.Contains([]Op{OpDeliver, OpDuplicate, OpDrop, OpRequest, OpRelease, OpCrash, OpRestart, OpPartition, OpHeal}, o)
}

// Choice is one schedule step. Message choices address the head of a
// link rather than a raw queue index, so a serialized schedule stays
// meaningful under minimization.
type Choice struct {
	Op   Op       `json:"op"`
	From mutex.ID `json:"from,omitempty"`
	To   mutex.ID `json:"to,omitempty"`
	Node mutex.ID `json:"node,omitempty"`
}

// String renders the choice for humans.
func (c Choice) String() string {
	switch c.Op {
	case OpHeal:
		return string(c.Op)
	case OpRequest, OpRelease, OpCrash, OpRestart, OpPartition:
		return fmt.Sprintf("%s(%d)", c.Op, c.Node)
	default:
		return fmt.Sprintf("%s(%d->%d)", c.Op, c.From, c.To)
	}
}

// Schedule is a sequence of choices from the initial state.
type Schedule []Choice

// String renders the schedule compactly.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ")
}

// link identifies an ordered sender/receiver pair.
type link struct{ from, to mutex.ID }

// links returns the links with in-flight messages in order of each link's
// oldest message (deterministic and independent of how the queue happens
// to interleave links).
func (s *System) links() []link {
	var order []link
	for _, m := range s.World.Inflight() {
		if l := (link{m.From, m.To}); !slices.Contains(order, l) {
			order = append(order, l)
		}
	}
	return order
}

// enabled enumerates the choices available in the current state, in a
// fixed deterministic order: deliveries, duplications, drops, crashes,
// restarts, partition cuts, heal, releases, requests.
func (s *System) enabled(bud budget) []Choice {
	var out []Choice
	order := s.links()
	for _, l := range order {
		out = append(out, Choice{Op: OpDeliver, From: l.from, To: l.to})
	}
	if bud.dups > 0 {
		for _, l := range order {
			out = append(out, Choice{Op: OpDuplicate, From: l.from, To: l.to})
		}
	}
	if bud.drops > 0 {
		for _, l := range order {
			out = append(out, Choice{Op: OpDrop, From: l.from, To: l.to})
		}
	}
	if bud.crashes > 0 {
		for _, a := range s.apps {
			if !a.crashed {
				out = append(out, Choice{Op: OpCrash, Node: a.id})
			}
		}
	}
	if bud.restarts > 0 && !s.anyInCS() && s.allRebuildable() {
		for _, a := range s.apps {
			if a.crashed && a.rebuild != nil {
				out = append(out, Choice{Op: OpRestart, Node: a.id})
			}
		}
	}
	_, cut := s.World.Isolated()
	if bud.parts > 0 && !cut {
		for _, a := range s.apps {
			if !a.crashed {
				out = append(out, Choice{Op: OpPartition, Node: a.id})
			}
		}
	}
	if cut {
		out = append(out, Choice{Op: OpHeal})
	}
	for _, a := range s.apps {
		if !a.crashed && a.inst.State() == mutex.InCS {
			out = append(out, Choice{Op: OpRelease, Node: a.id})
		}
	}
	for _, a := range s.apps {
		if !a.crashed && a.remaining > 0 && a.inst.State() == mutex.NoReq {
			out = append(out, Choice{Op: OpRequest, Node: a.id})
		}
	}
	return out
}

// linkIndex locates the global inflight index of the head of link
// from→to, or -1.
func (s *System) linkIndex(from, to mutex.ID) int {
	for i, m := range s.World.Inflight() {
		if m.From == from && m.To == to {
			return i
		}
	}
	return -1
}

// apply executes one choice. Inapplicable choices (replaying a foreign or
// minimized schedule) return an error; panics out of instances — protocol
// violations a fault action provoked — are converted into monitor
// violations.
func (s *System) apply(c Choice) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.mon.Reportf("panic at step %d applying %s: %v", s.steps, c, r)
		}
	}()
	s.steps++
	switch c.Op {
	case OpDeliver, OpDuplicate, OpDrop:
		g := s.linkIndex(c.From, c.To)
		if g < 0 {
			return fmt.Errorf("explore: step %d: no message in flight on %d->%d", s.steps, c.From, c.To)
		}
		switch c.Op {
		case OpDeliver:
			s.World.DeliverAt(g)
		case OpDuplicate:
			s.World.DuplicateAt(g)
		case OpDrop:
			s.World.DropAt(g)
		}
	case OpRequest:
		a := s.byID[c.Node]
		if a == nil || a.crashed || a.remaining <= 0 || a.inst.State() != mutex.NoReq {
			return fmt.Errorf("explore: step %d: request(%d) not enabled", s.steps, c.Node)
		}
		a.remaining--
		a.inst.Request()
		s.World.Settle()
	case OpRelease:
		a := s.byID[c.Node]
		if a == nil || a.crashed || a.inst.State() != mutex.InCS {
			return fmt.Errorf("explore: step %d: release(%d) not enabled", s.steps, c.Node)
		}
		s.mon.Exit(c.Node)
		a.inst.Release()
		s.World.Settle()
	case OpCrash:
		a := s.byID[c.Node]
		if a == nil || a.crashed {
			return fmt.Errorf("explore: step %d: crash(%d) not enabled", s.steps, c.Node)
		}
		a.crashed = true
		a.lost = a.remaining
		a.remaining = 0
		s.mon.Crashed(c.Node) // vacates the CS if the victim holds it
		s.World.Crash(c.Node)
	case OpRestart:
		a := s.byID[c.Node]
		if a == nil || !a.crashed || a.rebuild == nil {
			return fmt.Errorf("explore: step %d: restart(%d) not enabled", s.steps, c.Node)
		}
		if s.anyInCS() {
			return fmt.Errorf("explore: step %d: restart(%d) while a member is in the critical section", s.steps, c.Node)
		}
		// The resync epoch: the restarted node comes back amnesiac, the
		// epoch fence discards every message of the previous epoch, and
		// every live member rebuilds its instance around a designated
		// holder — the lowest live member other than the restarter, so its
		// dead claim never resurrects. Members that were requesting get
		// the request re-issued (recovery re-requests on behalf of a
		// requesting owner) as a future request step.
		a.crashed = false
		a.remaining = a.lost
		a.lost = 0
		holder := c.Node
		for _, b := range s.apps {
			if b.id != c.Node && !b.crashed && (holder == c.Node || b.id < holder) {
				holder = b.id
			}
		}
		s.World.Restart(c.Node)
		s.World.PurgeInflight()
		for _, b := range s.apps {
			if b.crashed {
				continue
			}
			if b.rebuild == nil {
				return fmt.Errorf("explore: step %d: restart(%d): live app %d has no rebuild hook", s.steps, c.Node, b.id)
			}
			if b.id != c.Node && b.inst.State() == mutex.Req {
				b.remaining++
			}
			inst, err := b.rebuild(holder)
			if err != nil {
				return fmt.Errorf("explore: step %d: rebuilding app %d: %w", s.steps, b.id, err)
			}
			b.inst = inst
			s.World.Replace(b.id, inst)
		}
		s.mon.Restarted(c.Node)
		s.World.Settle()
	case OpPartition:
		if _, cut := s.World.Isolated(); cut {
			return fmt.Errorf("explore: step %d: partition(%d) with a cut already active", s.steps, c.Node)
		}
		a := s.byID[c.Node]
		if a == nil || a.crashed {
			return fmt.Errorf("explore: step %d: partition(%d) not enabled", s.steps, c.Node)
		}
		s.World.Isolate(c.Node)
	case OpHeal:
		if _, cut := s.World.Isolated(); !cut {
			return fmt.Errorf("explore: step %d: heal with no active cut", s.steps)
		}
		s.World.Heal()
	default:
		return fmt.Errorf("explore: step %d: unknown op %q", s.steps, c.Op)
	}
	if s.live != nil {
		s.live.Step(s.waiting(), len(s.World.Inflight()))
	}
	return nil
}

// fingerprint renders the observable state canonically: per-app protocol
// state in registration order, then per-link in-flight queues in sorted
// link order (the cross-link interleaving of the raw queue is behaviorally
// irrelevant). Message payloads are rendered with %#v — messages are plain
// self-contained structs (enforced by gridlint's msgpurity pass), so the
// rendering is deterministic. Probes registered with AddProbe contribute
// between the two. Hidden instance variables not reflected in protocol
// state, probes, or pending messages are NOT captured; see DESIGN.md for
// the pruning caveat this implies.
func (s *System) fingerprint() string {
	var b strings.Builder
	for _, a := range s.apps {
		fmt.Fprintf(&b, "%d:%d%t%t%t:%d:%d;", a.id, a.inst.State(), a.inst.HoldsToken(), a.inst.HasPending(), a.crashed, a.remaining, a.granted)
	}
	for _, p := range s.probes {
		b.WriteString(p())
		b.WriteByte(';')
	}
	if iso, cut := s.World.Isolated(); cut {
		fmt.Fprintf(&b, "cut:%d;", iso)
	}
	b.WriteByte('|')
	order := s.links()
	sort.Slice(order, func(i, j int) bool {
		if order[i].from != order[j].from {
			return order[i].from < order[j].from
		}
		return order[i].to < order[j].to
	})
	inflight := s.World.Inflight()
	for _, l := range order {
		fmt.Fprintf(&b, "%d>%d:", l.from, l.to)
		for _, m := range inflight {
			if m.From == l.from && m.To == l.to {
				fmt.Fprintf(&b, "%#v,", m.Msg)
			}
		}
		b.WriteByte(';')
	}
	return b.String()
}

// checkTerminal runs the quiescence assertions once no choice is enabled:
// nothing may remain requested or in the critical section, every budgeted
// request must have been issued and granted, entries must match exits, and
// optionally exactly WantTokenHolders apps hold a token. With a crash or
// partition budget the exploration is safety-only: completion checks would
// flag the legitimate stall of survivors waiting on a token that died with
// its holder (or on the wire across a cut), so only the monitor's own
// quiescence accounting runs.
func (s *System) checkTerminal(o Options) {
	if o.faulty() {
		s.mon.AssertQuiescent()
		return
	}
	for _, a := range s.apps {
		if st := a.inst.State(); st != mutex.NoReq {
			s.mon.Reportf("terminal: app %d stuck in state %v at step %d", a.id, st, s.steps)
		}
		if a.remaining > 0 {
			s.mon.Reportf("terminal: app %d never issued %d of its requests", a.id, a.remaining)
		}
		if a.granted != o.RequestsPerApp-a.remaining {
			s.mon.Reportf("terminal: app %d granted %d of %d issued requests", a.id, a.granted, o.RequestsPerApp-a.remaining)
		}
	}
	s.mon.AssertQuiescent()
	if o.CheckTokenHolders {
		holders := 0
		for _, a := range s.apps {
			if a.inst.HoldsToken() {
				holders++
			}
		}
		if holders != o.WantTokenHolders {
			s.mon.Reportf("terminal: %d token holders, want %d", holders, o.WantTokenHolders)
		}
	}
}

// start finalizes construction before the first step: boot callbacks run
// and the liveness assertion arms.
func (s *System) start(o Options) error {
	if len(s.apps) == 0 {
		return fmt.Errorf("explore: system has no drivable apps")
	}
	for _, a := range s.apps {
		a.remaining = o.RequestsPerApp
	}
	if !o.faulty() {
		// Safety-only under crashes and partitions: a stalled survivor is
		// expected, not a liveness bug (see Options.MaxCrashes).
		s.live = check.NewStepLiveness(s.mon, livenessBound)
	}
	s.World.Settle()
	return nil
}

// build constructs and starts a fresh system.
func build(b Builder, o Options) (*System, error) {
	sys, err := b()
	if err != nil {
		return nil, err
	}
	if err := sys.start(o); err != nil {
		return nil, err
	}
	return sys, nil
}
