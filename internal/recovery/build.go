package recovery

import (
	"fmt"
	"sort"
	"time"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/core"
	"gridmutex/internal/mutex"
	"gridmutex/internal/topology"
)

// BuildOptions tune a crash-tolerant deployment.
type BuildOptions struct {
	// Intra and Inter tune the failure detectors of the per-cluster intra
	// groups and of the inter group. Fill both from StaggeredTimeouts: the
	// inter timeout has to be staggered after the intra one for safety, and
	// Build takes what it is given.
	Intra, Inter Options
	// NodeDown is the crash oracle (typically simnet's (*Network).Down);
	// nil means nodes never crash.
	NodeDown func(node int) bool
	// OnEpoch, when non-nil, observes every epoch application of every
	// member — the hook monitors and tracers attach to. Build passes it
	// and OnRejoin to every group as they are (GroupConfig).
	OnEpoch func(group string, self mutex.ID, e Epoch, members []mutex.ID, holder mutex.ID)
	// OnRejoin, when non-nil, observes every re-admission of a restarted
	// member — run harnesses use it to revive workloads and sample
	// rejoin latency.
	OnRejoin func(group string, self mutex.ID, e Epoch)
}

// Standby is a cluster's backup coordinator and the keeper of the
// cluster's bridge roles: a passive member of both the cluster's intra
// group and the inter group that activates — creates a coordinator
// automaton and takes over both memberships — when its primary is
// excluded from the intra group (or rejoined passively). It also handles
// the rejoin side: a restarted primary or standby re-enters its groups
// passively or re-coordinates, and a minority freeze parks whichever
// automaton currently drives the cluster.
type Standby struct {
	id       mutex.ID
	primary  mutex.ID
	cluster  int
	intraM   *Member
	interM   *Member
	priIntra *Member
	priInter *Member
	d        *Deployment
	// coord is the automaton created at takeover: non-nil exactly while
	// the standby is active.
	coord *core.Coordinator
	// priPassive marks a primary that rejoined while the standby was
	// active: alive, a group member, but not driving the automaton.
	priPassive bool
}

// ID returns the standby's process id.
func (s *Standby) ID() mutex.ID { return s.id }

// Activated reports whether the standby has taken over.
func (s *Standby) Activated() bool { return s.coord != nil }

// onIntraEpoch is the takeover trigger, installed as the OnEpoch hook of
// the standby's intra member: it fires inside the epoch application,
// before any buffered traffic is flushed, so the new coordinator's
// callbacks are in place ahead of queued requests. An epoch that froze
// boots the automaton too: its boot request stays recorded.
func (s *Standby) onIntraEpoch(e Epoch, members []mutex.ID, holder mutex.ID) {
	if s.Activated() || !containsID(members, s.id) {
		return
	}
	if containsID(members, s.primary) && !s.priPassive {
		return
	}
	s.coord = seat(s.id, s.intraM, s.interM, holder != s.id && holder != mutex.None && holder != s.primary)
}

// onPrimaryRejoin re-couples the bridge when the restarted primary is
// re-admitted to the intra group. If the standby took over, the primary
// rejoins passively; otherwise a fresh automaton is adopted — always
// from Booting, because a primary restart never resurrects the cluster's
// critical-section claim (amnesia forfeited it; the join cooldown
// guarantees the inter group's regeneration runs only after this
// re-adoption, so the claim cannot be doubled).
func (s *Standby) onPrimaryRejoin(e Epoch, members []mutex.ID, holder mutex.ID) {
	if s.Activated() {
		s.priPassive = true
		s.priIntra.SetCallbacks(mutex.Callbacks{})
		s.priInter.SetCallbacks(mutex.Callbacks{})
		return
	}
	s.priPassive = false
	s.d.Coordinators[s.cluster] = seat(s.primary, s.priIntra, s.priInter, false)
}

// seat makes the automaton that drives the cluster from process id and
// adopts id's two members. out says the intra token is out with an
// application process: the cluster still owns the global CS right, so the
// inter member claims it (the inter census regenerates the token here) and
// the automaton resumes from IN; otherwise it boots. Callers record the
// automaton after Adopt: onMinority, the record's only reader, runs from
// an inter member's detector events, never inside Adopt.
func seat(id mutex.ID, intraM, interM *Member, out bool) *core.Coordinator {
	c := core.NewCoordinator(id)
	intraM.SetCallbacks(c.IntraCallbacks())
	interM.SetCallbacks(c.InterCallbacks())
	if out {
		interM.AdoptCS()
		c.Adopt(intraM, interM, core.In)
	} else {
		c.Adopt(intraM, interM, core.Booting)
	}
	return c
}

// onStandbyRejoin re-couples the bridge when the restarted standby is
// re-admitted: it always rejoins passively. If the primary is still
// gone, the very epoch that re-admits the standby re-triggers the
// takeover (OnRejoin runs before OnEpoch, where onIntraEpoch hangs).
func (s *Standby) onStandbyRejoin(e Epoch, members []mutex.ID, holder mutex.ID) {
	s.coord = nil
	s.intraM.SetCallbacks(mutex.Callbacks{})
	s.interM.SetCallbacks(mutex.Callbacks{})
}

// onPrimaryEpoch re-activates a passive primary when the active standby
// dies: the epoch that excludes the standby while the primary is a
// member hands coordination back (mirroring the standby takeover,
// including the inheritance of the cluster's critical-section claim).
func (s *Standby) onPrimaryEpoch(e Epoch, members []mutex.ID, holder mutex.ID) {
	if !s.priPassive || containsID(members, s.id) || !containsID(members, s.primary) {
		return
	}
	s.priPassive = false
	s.coord = nil
	s.d.Coordinators[s.cluster] = seat(s.primary, s.priIntra, s.priInter, holder != s.primary && holder != mutex.None && holder != s.id)
}

// onMinority parks or resumes whichever automaton currently drives the
// cluster. Installed as the OnMinority hook of both inter members; the
// role flags decide which one acts.
func (s *Standby) onMinority(standbySide bool, entered bool) {
	var c *core.Coordinator
	if standbySide {
		if !s.Activated() {
			return
		}
		c = s.coord
	} else {
		if s.Activated() || s.priPassive {
			return
		}
		c = s.d.Coordinators[s.cluster]
	}
	if entered {
		c.Isolate()
	} else {
		c.Reconnect()
	}
}

// Deployment is a wired crash-tolerant grid: a core.Deployment whose
// Apps' instances are recovery Members and whose Coordinators are, in
// cluster order, the automata of the primaries (replaced when a primary
// re-coordinates), plus the standbys and the members.
type Deployment struct {
	core.Deployment
	// Standbys lists the backup coordinators, in cluster order.
	Standbys []*Standby
	// Members lists every recovery member in deterministic order (intra
	// groups by cluster then id, then inter members by id).
	Members []*Member
}

// Stop halts every member's failure detector so a driven simulation can
// drain (heartbeats otherwise keep the event queue non-empty forever).
func (d *Deployment) Stop() {
	for _, m := range d.Members {
		m.Stop()
	}
}

// Stats sums the counters of every member; each of the three state flags
// reads true when it does for any member.
func (d *Deployment) Stats() Stats {
	var sum Stats
	for _, m := range d.Members {
		s := m.Stats()
		sum.Epochs += s.Epochs
		sum.Regenerations += s.Regenerations
		sum.Rounds += s.Rounds
		sum.Suspicions += s.Suspicions
		sum.StaleDropped += s.StaleDropped
		sum.FencedDropped += s.FencedDropped
		sum.HeartbeatsSent += s.HeartbeatsSent
		sum.Restarts += s.Restarts
		sum.Rejoins += s.Rejoins
		sum.MinorityFreezes += s.MinorityFreezes
		sum.Frozen = sum.Frozen || s.Frozen
		sum.Minority = sum.Minority || s.Minority
		sum.Rejoining = sum.Rejoining || s.Rejoining
	}
	return sum
}

// Build assembles the paper's two-level composition with crash recovery:
// within every cluster the first node hosts the primary coordinator, the
// second node the standby, and the remaining nodes application processes.
// The spec's intra algorithm runs per cluster under a recovery group
// whose regeneration preference is [primary, standby]; the inter
// algorithm runs among all primaries and standbys (standbys passive)
// under a recovery group regenerating at the lowest live member.
//
// Every cluster needs at least 3 nodes (primary, standby, one
// application). Fault-free runs of this deployment behave exactly like
// core.BuildComposed apart from heartbeat traffic and the standby's
// passive memberships.
func Build(fab mutex.Fabric, grid *topology.Grid, spec core.Spec, appCB core.CallbackFunc, clock Clock, bopts BuildOptions) (*Deployment, error) {
	intraF, err := algorithms.Factory(spec.Intra)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	interF, err := algorithms.Factory(spec.Inter)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	var down func(mutex.ID) bool
	if nd := bopts.NodeDown; nd != nil {
		down = func(id mutex.ID) bool { return nd(int(id)) }
	}

	if grid.ClusterSize() < 3 {
		return nil, fmt.Errorf("recovery: clusters have %d nodes; need a primary, a standby and at least one application process", grid.ClusterSize())
	}

	// The inter group spans every primary and standby.
	var interIDs []mutex.ID
	for c := 0; c < grid.NumClusters(); c++ {
		nodes := grid.NodesIn(c)
		interIDs = append(interIDs, mutex.ID(nodes[0]), mutex.ID(nodes[1]))
	}
	sort.Slice(interIDs, func(i, j int) bool { return interIDs[i] < interIDs[j] })
	inter, err := NewGroup(GroupConfig{
		Name: "inter", Members: interIDs, Holder: mutex.ID(grid.NodesIn(0)[0]),
		Factory: interF, Clock: clock, Opts: bopts.Inter,
		Down: down, OnEpoch: bopts.OnEpoch, OnRejoin: bopts.OnRejoin,
	})
	if err != nil {
		return nil, err
	}

	// Every node but each cluster's primary and standby is an application
	// process.
	d := &Deployment{}
	d.Apps = make([]core.App, 0, grid.NumNodes()-2*grid.NumClusters())
	d.Reserve(grid.NumNodes())
	for c := 0; c < grid.NumClusters(); c++ {
		nodes := grid.NodesIn(c)
		members := make([]mutex.ID, len(nodes))
		for i, n := range nodes {
			members[i] = mutex.ID(n)
		}
		primary, standbyID := members[0], members[1]
		coord := core.NewCoordinator(primary)
		sb := &Standby{id: standbyID, primary: primary, cluster: c, d: d}
		g, err := NewGroup(GroupConfig{
			Name: fmt.Sprintf("intra%d", c), Members: members, Holder: primary, Factory: intraF, Clock: clock,
			HolderPrefs: []mutex.ID{primary, standbyID}, Opts: bopts.Intra,
			Down: down, OnEpoch: bopts.OnEpoch, OnRejoin: bopts.OnRejoin,
		})
		if err != nil {
			return nil, err
		}
		for _, id := range members {
			proc := d.Register(fab, id, int(id))
			var cbs mutex.Callbacks
			var onRole, onRejoin func(Epoch, []mutex.ID, mutex.ID)
			switch id {
			case primary:
				cbs = coord.IntraCallbacks()
				onRole = sb.onPrimaryEpoch
				onRejoin = sb.onPrimaryRejoin
			case standbyID:
				// Passive until takeover.
				onRole = sb.onIntraEpoch
				onRejoin = sb.onStandbyRejoin
			default:
				if appCB != nil {
					cbs = appCB(id)
				}
			}
			m, err := g.NewMember(MemberConfig{
				Self: id, Env: proc.Env(0), Callbacks: cbs, OnEpoch: onRole, OnRejoin: onRejoin,
			})
			if err != nil {
				return nil, err
			}
			proc.Attach(0, m)
			d.Members = append(d.Members, m)
			switch id {
			case primary:
				sb.priIntra = m
			case standbyID:
				sb.intraM = m
			default:
				d.Apps = append(d.Apps, core.App{ID: id, Cluster: c, Instance: m})
			}
		}
		d.Coordinators = append(d.Coordinators, coord)
		d.Standbys = append(d.Standbys, sb)
	}

	// Inter members: one per primary and standby, attached at level 1.
	var interMembers []*Member
	for c, sb := range d.Standbys {
		for i, id := range []mutex.ID{sb.primary, sb.id} {
			standbySide := i == 1
			var cbs mutex.Callbacks
			if !standbySide {
				cbs = d.Coordinators[c].InterCallbacks()
			}
			m, err := inter.NewMember(MemberConfig{
				Self: id, Env: d.Procs[id].Env(1), Callbacks: cbs,
				OnMinority: func(entered bool) { sb.onMinority(standbySide, entered) },
			})
			if err != nil {
				return nil, err
			}
			d.Procs[id].Attach(1, m)
			interMembers = append(interMembers, m)
			if standbySide {
				sb.interM = m
			} else {
				sb.priInter = m
				// Start the primary's automaton on its serial context,
				// exactly like core's builder.
				coord, intraM, interM := d.Coordinators[c], sb.priIntra, m
				d.Procs[id].Env(0).Local(func() { coord.Start(intraM, interM) })
			}
		}
	}
	d.Members = append(d.Members, interMembers...)
	for _, m := range d.Members {
		m.Start()
	}
	return d, nil
}

// StaggeredTimeouts returns detector options for a heartbeat period and a
// maximum one-way latency, with the inter group's timeout staggered after
// the intra group's worst-case recovery. The stagger matters for safety:
// when a primary dies while its cluster owns the global CS right, the
// cluster's intra recovery (and the standby's claim on the inter token, see
// Member.AdoptCS) must complete before the inter group's census runs, or
// the inter token would be regenerated in another cluster while this one's
// application is still inside its critical section.
func StaggeredTimeouts(period, maxDelay time.Duration) (intra, inter Options) {
	intra = Options{
		Period:       period,
		Timeout:      2*period + 4*maxDelay,
		ProbeTimeout: 2*period + 4*maxDelay,
	}
	inter = Options{
		Period:       period,
		Timeout:      2*intra.Timeout + intra.ProbeTimeout,
		ProbeTimeout: 2*period + 4*maxDelay,
	}
	return intra, inter
}
