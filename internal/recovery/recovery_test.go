package recovery

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"gridmutex/internal/check"
	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
	"gridmutex/internal/simnet"
	"gridmutex/internal/topology"
	"gridmutex/internal/trace"
	"gridmutex/internal/workload"
)

func TestEpochOrder(t *testing.T) {
	cases := []struct {
		a, b Epoch
		less bool
	}{
		{Epoch{0, mutex.None}, Epoch{1, 3}, true},
		{Epoch{1, 3}, Epoch{0, mutex.None}, false},
		{Epoch{2, 1}, Epoch{2, 4}, true},
		{Epoch{2, 4}, Epoch{2, 4}, false},
		{Epoch{3, 9}, Epoch{4, 0}, true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestWrappedTransparency(t *testing.T) {
	inner := Heartbeat{} // any message will do
	w := Wrapped{E: Epoch{3, 7}, Inner: inner}
	if w.Kind() != inner.Kind() {
		t.Errorf("wrapped kind %q, want inner kind %q", w.Kind(), inner.Kind())
	}
	if w.Size() != inner.Size()+8 {
		t.Errorf("wrapped size %d, want inner+8 = %d", w.Size(), inner.Size()+8)
	}
}

// rig is one simulated crash-tolerant deployment under workload.
type rig struct {
	sim    *des.Simulator
	net    *simnet.Network
	grid   *topology.Grid
	mon    *check.Monitor
	runner *workload.Runner
	dep    *Deployment
	tr     *trace.Tracer
}

// buildRig assembles a 3-cluster deployment (5 nodes each: primary,
// standby, 3 apps) running naimi-naimi under a short-period detector.
// wrapCB, when non-nil, may wrap the workload callbacks per app id.
func buildRig(t *testing.T, seed int64, wrapCB func(r *rig, id mutex.ID, inner mutex.Callbacks) mutex.Callbacks) *rig {
	t.Helper()
	g := topology.Uniform(3, 5, time.Millisecond, 20*time.Millisecond)
	sim := des.New()
	tr := trace.New(func() time.Duration { return sim.Now() }, 1<<18)
	net := simnet.New(sim, g, simnet.Options{Seed: seed, Trace: tr})
	mon := check.NewMonitor(sim)
	runner, err := workload.NewRunner(sim, workload.Params{
		Alpha: 5 * time.Millisecond, Rho: 6, CSPerProcess: 6, Seed: seed,
	}, mon)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{sim: sim, net: net, grid: g, mon: mon, runner: runner, tr: tr}
	appCB := func(id mutex.ID) mutex.Callbacks {
		inner := runner.Callbacks(id)
		if wrapCB == nil {
			return inner
		}
		return wrapCB(r, id, inner)
	}
	intra, inter := StaggeredTimeouts(20*time.Millisecond, 10*time.Millisecond)
	dep, err := Build(net, g, core.Spec{Intra: "naimi", Inter: "naimi"}, appCB, sim, BuildOptions{
		Intra:    intra,
		Inter:    inter,
		NodeDown: net.Down,
		OnEpoch: func(group string, self mutex.ID, e Epoch, members []mutex.ID, holder mutex.ID) {
			tr.Record(trace.Custom, self, holder, "epoch "+group+" "+e.String())
			mon.BeginEpoch(group)
		},
		OnRejoin: func(group string, self mutex.ID, e Epoch) {
			tr.Record(trace.Custom, self, mutex.None, "rejoin "+group+" "+e.String())
			mon.Rejoined(self)
			runner.Revive(self)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.dep = dep
	runner.Bind(dep.Apps)
	runner.Start()
	return r
}

// crash fail-stops a node: network, workload and monitor bookkeeping.
func (r *rig) crash(id mutex.ID) {
	r.net.Crash(int(id))
	r.runner.Crash(id)
	r.mon.Crashed(id)
	r.tr.Record(trace.Custom, id, mutex.None, "crash")
}

// restart brings a crashed node back up: network connectivity returns and
// the monitor opens a rejoin-latency sample; the node's members notice the
// up edge on their next tick and run the rejoin protocol.
func (r *rig) restart(id mutex.ID) {
	r.net.Restart(int(id))
	r.mon.Restarted(id)
	r.tr.Record(trace.Custom, id, mutex.None, "restart")
}

// drive steps the simulation until the workload completes (heartbeats
// keep the queue non-empty, so Run would never return), then stops the
// detectors and drains.
func (r *rig) drive(t *testing.T) {
	t.Helper()
	const limit = 5_000_000
	for !r.runner.Done() {
		if r.sim.Processed() > limit {
			t.Fatalf("workload not done after %d events at %v; outstanding=%d waiting=%d",
				r.sim.Processed(), r.sim.Now(), r.runner.Outstanding(), r.runner.Waiting())
		}
		if !r.sim.Step() {
			t.Fatal("event queue drained before workload completion")
		}
	}
	r.dep.Stop()
	if err := r.sim.RunCapped(limit); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) assertClean(t *testing.T) {
	t.Helper()
	for _, v := range r.mon.Violations() {
		t.Errorf("violation: %s", v)
	}
	r.mon.AssertQuiescent()
	if !r.mon.Ok() {
		t.Fatalf("monitor not ok after quiescence check: %v", r.mon.Violations())
	}
}

// TestFaultFreeComplete: with no faults the deployment behaves like the
// plain composition — full completion, no violations, no epochs.
func TestFaultFreeComplete(t *testing.T) {
	r := buildRig(t, 1, nil)
	r.drive(t)
	r.assertClean(t)
	if got, want := int64(len(r.runner.Records())), int64(9*6); got != want {
		t.Fatalf("records %d, want %d", got, want)
	}
	if r.mon.Epochs() != 0 {
		t.Fatalf("fault-free run produced %d epochs", r.mon.Epochs())
	}
	for _, sb := range r.dep.Standbys {
		if sb.Activated() {
			t.Fatalf("standby %d activated without a crash", sb.ID())
		}
	}
}

// TestBuildSizesAppsOnce: Build makes Apps at its final length, every node
// but each cluster's primary and standby, so it leaves no outgrown array
// behind.
func TestBuildSizesAppsOnce(t *testing.T) {
	r := buildRig(t, 1, nil)
	if apps := r.dep.Apps; len(apps) != 9 || cap(apps) != len(apps) {
		t.Errorf("Apps len %d cap %d, want both 9", len(apps), cap(apps))
	}
}

// TestMemberLayout: a Member holds only what its process owns; what its
// whole group shares, its crash oracle and observers included, sits in the one
// Group value it points at, and its fault-handling state in a census it
// allocates when a fault needs it (a Member was 584 bytes, a 640-byte
// allocation, while it kept its own copy of its group, 384 while it kept its
// own crash oracle, and 376, still a 384-byte allocation, while it kept its
// census inline).
func TestMemberLayout(t *testing.T) {
	if size := unsafe.Sizeof(Member{}); size > 256 {
		t.Errorf("Member is %d bytes, want <= 256", size)
	}
}

// TestPeerEncoding: a peer is one word, its heard-at instant stored
// complemented while suspected, and both read back unchanged at every
// instant up to the end of time. Hearing a suspect peer while a round runs
// records the instant and keeps the suspicion; hearing it between rounds
// clears it.
func TestPeerEncoding(t *testing.T) {
	if size := unsafe.Sizeof(peer(0)); size != 8 {
		t.Errorf("peer is %d bytes, want 8", size)
	}
	for _, at := range []des.Time{0, 1, Options{}.withDefaults().Timeout, math.MaxInt64} {
		for _, suspect := range []bool{false, true} {
			p := newPeer(at, suspect)
			if p.heardAt() != at || p.suspect() != suspect {
				t.Errorf("newPeer(%d, %v) reads (%d, %v)", at, suspect, p.heardAt(), p.suspect())
			}
		}
	}
	sim := des.New()
	net := simnet.New(sim, topology.Uniform(1, 2, time.Millisecond, time.Millisecond), simnet.Options{})
	g, err := NewGroup(GroupConfig{
		Name: "g", Members: []mutex.ID{0, 1}, Factory: func(mutex.Config) (mutex.Instance, error) { return idleInst{}, nil }, Clock: sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.NewMember(MemberConfig{Self: 0, Env: net.Endpoint(0)})
	if err != nil {
		t.Fatal(err)
	}
	sim.After(7*time.Millisecond, func() {})
	sim.Run()
	for _, probing := range []bool{true, false} {
		m.peers[1], m.probing = newPeer(3*time.Millisecond, true), probing
		m.heard(1)
		if p := m.peers[1]; p.heardAt() != 7*time.Millisecond || p.suspect() != probing {
			t.Errorf("heard while probing=%v: peer reads (%v, suspect %v), want (7ms, suspect %v)", probing, p.heardAt(), p.suspect(), probing)
		}
	}
}

// TestBuildAllocsPerProcess: Build makes one Group per cluster and one for
// the inter level, every member points at its group's, every process comes
// out of the deployment's one arena into a dense Procs table, and a build of
// 6 clusters of a primary, a standby and 8 applications, with the crash
// oracle and both observers set as run.Build sets them, allocates at most
// 1,020 bytes per process, and within a byte of what it allocates with no
// hook at all: a hook is the group's, and costs nothing per member. It reads
// 992; 1,264 when every member kept its census inline, its detector table at
// 16 bytes a peer and two closures per epoch, 1,654 when every member also
// had a crash-oracle and two observer closures of its own (1,375 with the
// crash oracle alone), 1,471 without hooks when every process was a heap
// object of its own in a map beside the arena, and 1,902 when every member
// also kept its own copy of its group's configuration, membership and id
// table. TotalAlloc is process-wide, so the least of five builds is the
// build's own. The byte pins hold for the plain build only: a race-detector
// build's allocator moves either reading by a few bytes.
func TestBuildAllocsPerProcess(t *testing.T) {
	grid := topology.Uniform(6, 10, time.Millisecond, 20*time.Millisecond)
	intra, inter := StaggeredTimeouts(20*time.Millisecond, 10*time.Millisecond)
	build := func(hooks bool) (*Deployment, float64) {
		least := uint64(math.MaxUint64)
		var d *Deployment
		for i := 0; i < 5; i++ {
			sim := des.New()
			net := simnet.New(sim, grid, simnet.Options{Seed: 1})
			opts := BuildOptions{Intra: intra, Inter: inter}
			if hooks {
				opts.NodeDown = net.Down
				opts.OnEpoch = func(string, mutex.ID, Epoch, []mutex.ID, mutex.ID) {}
				opts.OnRejoin = func(string, mutex.ID, Epoch) {}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			dep, err := Build(net, grid, core.Spec{Intra: "naimi", Inter: "naimi"}, nil, sim, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			d, least = dep, min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return d, float64(least) / float64(len(d.Procs))
	}
	d, per := build(true)
	_, bare := build(false)
	groups := make(map[string]*Group)
	for _, m := range d.Members {
		if g, ok := groups[m.Group()]; !ok {
			groups[m.Group()] = m.g
		} else if m.g != g {
			t.Errorf("member %d of %s has a group value of its own", m.ID(), m.Group())
		}
	}
	if len(groups) != 7 {
		t.Errorf("%d groups, want 6 intra and 1 inter", len(groups))
	}
	if len(d.Procs) != grid.NumNodes() {
		t.Errorf("%d processes, want one per node, %d", len(d.Procs), grid.NumNodes())
	}
	for i, p := range d.Procs {
		if p == nil || p.ID() != mutex.ID(i) {
			t.Fatalf("Procs[%d] is %v, want process %d", i, p, i)
		}
	}
	if raceBuild {
		t.Logf("race build: %.1f bytes per process with every hook, %.1f with none, not pinned", per, bare)
		return
	}
	if per > 1020 {
		t.Errorf("Build allocates %.1f bytes per process with every hook, want <= 1,020", per)
	} else {
		t.Logf("Build allocates %.1f bytes per process with every hook, %.1f with none", per, bare)
	}
	if math.Abs(per-bare) >= 1 {
		t.Errorf("Build allocates %.1f bytes per process with every hook and %.1f with none, want the same", per, bare)
	}
}

// TestCensusOnlyWhereFaultsAre: a member allocates its census only when a
// fault reaches its group. A fault-free run, driven until its workload is
// done and its detectors have stopped, leaves every census nil; a run whose
// application token holder crashes inside its critical section gives one to
// every survivor of that cluster's group, which its leader probed, and to
// no member of another cluster's group.
func TestCensusOnlyWhereFaultsAre(t *testing.T) {
	r := buildRig(t, 1, nil)
	r.drive(t)
	for _, m := range r.dep.Members {
		if m.cs != nil {
			t.Errorf("fault-free run: member %d of %s holds a census", m.ID(), m.Group())
		}
	}
	victim := mutex.ID(2) // first app of cluster 0
	entries := 0
	r = buildRig(t, 2, func(r *rig, id mutex.ID, inner mutex.Callbacks) mutex.Callbacks {
		if id != victim {
			return inner
		}
		return mutex.Callbacks{OnAcquire: func() {
			inner.OnAcquire()
			if entries++; entries == 2 {
				r.crash(victim)
			}
		}}
	})
	r.drive(t)
	for _, m := range r.dep.Members {
		switch {
		case m.Group() == "intra0" && m.ID() != victim && m.cs == nil:
			t.Errorf("member %d of intra0 survived its group's crash without a census", m.ID())
		case m.Group() != "intra0" && m.Group() != "inter" && m.cs != nil:
			t.Errorf("member %d of %s holds a census, but no fault reached its group", m.ID(), m.Group())
		}
	}
}

// TestConstructorErrors: every input error is reported by exactly one of
// the two steps, the group's or the member's, with its text.
func TestConstructorErrors(t *testing.T) {
	sim := des.New()
	net := simnet.New(sim, topology.Uniform(1, 2, time.Millisecond, time.Millisecond), simnet.Options{})
	factory := func(mutex.Config) (mutex.Instance, error) { return idleInst{}, nil }
	cases := []struct {
		name                string
		group               func(*GroupConfig)
		member              func(*MemberConfig)
		groupErr, memberErr string
	}{
		{name: "empty membership", group: func(c *GroupConfig) { c.Members = nil }, groupErr: "recovery: empty membership"},
		{name: "nil factory", group: func(c *GroupConfig) { c.Factory = nil }, groupErr: "recovery: nil factory"},
		{name: "nil clock", group: func(c *GroupConfig) { c.Clock = nil }, groupErr: "recovery: nil clock"},
		{name: "nil env", member: func(c *MemberConfig) { c.Env = nil }, memberErr: "recovery: nil env"},
		{name: "valid"},
	}
	text := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, c := range cases {
		gc := GroupConfig{Name: "g", Members: []mutex.ID{0, 1}, Factory: factory, Clock: sim}
		mc := MemberConfig{Self: 0, Env: net.Endpoint(0)}
		if c.group != nil {
			c.group(&gc)
		}
		if c.member != nil {
			c.member(&mc)
		}
		g, err := NewGroup(gc)
		if got := text(err); got != c.groupErr {
			t.Errorf("%s: NewGroup error %q, want %q", c.name, got, c.groupErr)
		}
		if err != nil {
			continue
		}
		if _, err := g.NewMember(mc); text(err) != c.memberErr {
			t.Errorf("%s: NewMember error %q, want %q", c.name, text(err), c.memberErr)
		}
	}
}

// TestBuildRejectsSmallClusters: Build checks the one cluster size before
// it builds any group, and names the roles a cluster must hold.
func TestBuildRejectsSmallClusters(t *testing.T) {
	sim := des.New()
	g := topology.Uniform(3, 2, time.Millisecond, 20*time.Millisecond)
	net := simnet.New(sim, g, simnet.Options{})
	_, err := Build(net, g, core.Spec{Intra: "naimi", Inter: "naimi"}, nil, sim, BuildOptions{})
	const want = "recovery: clusters have 2 nodes; need a primary, a standby and at least one application process"
	if err == nil || err.Error() != want {
		t.Errorf("Build on 2-node clusters: error %v, want %q", err, want)
	}
}

// TestAppTokenHolderCrash is acceptance case (a): a non-coordinator token
// holder crashes inside its critical section; the token is regenerated,
// every surviving requester completes, and no safety violation occurs.
func TestAppTokenHolderCrash(t *testing.T) {
	victim := mutex.ID(2) // first app of cluster 0
	entries := 0
	r := buildRig(t, 2, func(r *rig, id mutex.ID, inner mutex.Callbacks) mutex.Callbacks {
		if id != victim {
			return inner
		}
		return mutex.Callbacks{OnAcquire: func() {
			inner.OnAcquire()
			entries++
			if entries == 2 {
				r.crash(victim) // fail-stop the instant it re-enters the CS
			}
		}}
	})
	r.drive(t)
	r.assertClean(t)
	if r.mon.CrashExits() != 1 {
		t.Fatalf("crash exits %d, want 1 (victim died inside the CS)", r.mon.CrashExits())
	}
	if r.mon.Epochs() == 0 {
		t.Fatal("no regeneration epoch after a token-holder crash")
	}
	if lat := r.mon.RecoveryLatencies(); len(lat) != 1 || lat[0] <= 0 {
		t.Fatalf("recovery latencies %v, want one positive sample", lat)
	}
	// Survivors: 8 apps × 6 critical sections, plus the victim's 2.
	if got, want := len(r.runner.Records()), 8*6+2; got != want {
		t.Fatalf("records %d, want %d", got, want)
	}
	for _, sb := range r.dep.Standbys {
		if sb.Activated() {
			t.Fatalf("standby %d activated though only an app crashed", sb.ID())
		}
	}
}

// The remaining acceptance cases — coordinator crash, coordinator crash
// while IN, frozen cluster (single and both levels), staggered multi-
// crash, lossy holder crash — live as declarative fixtures under
// testdata/scenarios/ and run via internal/scenario's corpus sweep.
// TestAppTokenHolderCrash above stays as the Go-coded guard so a
// scenario-engine regression cannot silently mask a recovery one.

// TestFaultyRunDeterministic: the same seed renders a byte-identical
// trace — including crash, regeneration-epoch and recovery events — and
// identical records; a different seed diverges.
func TestFaultyRunDeterministic(t *testing.T) {
	run := func(seed int64) (string, int) {
		victim := mutex.ID(7) // an app of cluster 1
		entries := 0
		r := buildRig(t, seed, func(r *rig, id mutex.ID, inner mutex.Callbacks) mutex.Callbacks {
			if id != victim {
				return inner
			}
			return mutex.Callbacks{OnAcquire: func() {
				inner.OnAcquire()
				entries++
				if entries == 1 {
					r.crash(victim)
				}
			}}
		})
		r.drive(t)
		r.assertClean(t)
		return r.tr.Dump(), len(r.runner.Records())
	}
	d1, n1 := run(11)
	d2, n2 := run(11)
	if d1 != d2 {
		t.Fatal("same seed produced different traces")
	}
	if n1 != n2 {
		t.Fatalf("same seed produced %d vs %d records", n1, n2)
	}
	if !strings.Contains(d1, "crash") || !strings.Contains(d1, "epoch intra1") {
		t.Fatalf("trace misses crash/epoch events:\n%.600s", d1)
	}
	if d3, _ := run(12); d3 == d1 {
		t.Fatal("different seeds produced identical traces")
	}
}

// idleInst is a token-less stub algorithm instance for detector-only tests.
type idleInst struct{}

func (idleInst) Request()                        {}
func (idleInst) Release()                        {}
func (idleInst) Deliver(mutex.ID, mutex.Message) {}
func (idleInst) HasPending() bool                { return false }
func (idleInst) HoldsToken() bool                { return false }
func (idleInst) State() mutex.State              { return mutex.NoReq }

// TestRestartHeartbeatUnsuspects is the detector regression for the rejoin
// path: a suspicion formed while a node was down must be rescinded by its
// fresh post-restart heartbeats within one probe census — before any round
// acts on it. The observable is the tick-time minority rule: with the
// stale suspicion cleared, a later unrelated crash leaves the observer
// hearing 3 of 4 members (no freeze); with it retained, the observer would
// count 2 of 4 and spuriously minority-freeze.
func TestRestartHeartbeatUnsuspects(t *testing.T) {
	g := topology.Uniform(1, 4, 10*time.Millisecond, 10*time.Millisecond)
	sim := des.New()
	net := simnet.New(sim, g, simnet.Options{Seed: 1})
	ids := []mutex.ID{0, 1, 2, 3}
	factory := func(mutex.Config) (mutex.Instance, error) { return idleInst{}, nil }
	group := func(timeout time.Duration) *Group {
		g, err := NewGroup(GroupConfig{
			Name: "g", Members: ids, Holder: 0, Factory: factory, Clock: sim,
			Opts: Options{Period: 10 * time.Millisecond, Timeout: timeout},
			Down: func(id mutex.ID) bool { return net.Down(int(id)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// The leader never suspects (and so never rounds): the test isolates
	// the heartbeat path from the census path. It is built from a group
	// value of its own over the same membership, with a longer Timeout.
	leader, rest := group(4*time.Second), group(45*time.Millisecond)
	members := make([]*Member, len(ids))
	for i, id := range ids {
		g := rest
		if id == 0 {
			g = leader
		}
		m, err := g.NewMember(MemberConfig{Self: id, Env: net.Endpoint(id)})
		if err != nil {
			t.Fatal(err)
		}
		net.Register(id, m)
		members[i] = m
	}
	for _, m := range members {
		m.Start()
	}
	sim.After(1*time.Millisecond, func() { net.Crash(2) })
	sim.After(60*time.Millisecond, func() { net.Restart(2) })
	sim.After(115*time.Millisecond, func() { net.Crash(3) })
	runUntil := func(at des.Time) {
		for sim.Now() < at {
			if !sim.Step() {
				t.Fatal("event queue drained unexpectedly")
			}
		}
	}
	obs := members[1]
	runUntil(100 * time.Millisecond)
	if s := obs.Stats(); s.Suspicions != 1 {
		t.Fatalf("observer suspicions %d before second crash, want 1 (the downed node)", s.Suspicions)
	}
	runUntil(250 * time.Millisecond)
	s := obs.Stats()
	if s.Suspicions != 2 {
		t.Fatalf("observer suspicions %d, want 2 (one per crash; the first rescinded by restart heartbeats)", s.Suspicions)
	}
	if s.MinorityFreezes != 0 || s.Minority {
		t.Fatalf("observer minority-froze (freezes=%d, minority=%v): stale suspicion of the restarted node survived its heartbeats", s.MinorityFreezes, s.Minority)
	}
	if rs := members[2].Stats(); rs.Restarts != 1 || !rs.Rejoining {
		t.Fatalf("restarted member stats %+v, want Restarts=1 and Rejoining (no epoch admitted it yet)", rs)
	}
}

// TestHeartbeatRoundAllocs pins the detector's steady state: one full
// heartbeat round of a 10-member group on simnet — ten ticks re-armed, 90
// heartbeats sent, counted by kind, queued, delivered and recorded — touches
// no map and allocates nothing once the event queue has grown.
func TestHeartbeatRoundAllocs(t *testing.T) {
	const period = 10 * time.Millisecond
	g := topology.Uniform(1, 10, time.Millisecond, time.Millisecond)
	sim := des.New()
	net := simnet.New(sim, g, simnet.Options{Seed: 1, Jitter: 0.05, KindCounts: true})
	ids := make([]mutex.ID, 10)
	for i := range ids {
		ids[i] = mutex.ID(i)
	}
	factory := func(mutex.Config) (mutex.Instance, error) { return idleInst{}, nil }
	grp, err := NewGroup(GroupConfig{
		Name: "g", Members: ids, Holder: 0, Factory: factory, Clock: sim,
		Opts: Options{Period: period, Timeout: 45 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var members []*Member
	for _, id := range ids {
		m, err := grp.NewMember(MemberConfig{Self: id, Env: net.Endpoint(id)})
		if err != nil {
			t.Fatal(err)
		}
		net.Register(id, m)
		members = append(members, m)
	}
	for _, m := range members {
		m.Start()
	}
	sim.RunFor(500 * period) // which buckets a round fills depends on the clock's bits
	before := members[0].Stats().HeartbeatsSent
	if allocs := testing.AllocsPerRun(100, func() { sim.RunFor(period) }); allocs != 0 {
		t.Errorf("one heartbeat round of 10 members allocates %.0f times, want 0", allocs)
	}
	if sent := members[0].Stats().HeartbeatsSent - before; sent != 101*9 {
		t.Errorf("member 0 sent %d heartbeats in the measured rounds, want 9 a round", sent)
	}
	for _, m := range members {
		if s := m.Stats(); s.Suspicions != 0 || s.Epochs != 0 {
			t.Errorf("member %d: %+v, want an undisturbed group", m.ID(), s)
		}
	}
}

// TestRestartRejoinCompletes is the full-lifecycle acceptance: an
// application token holder crashes inside its critical section, the node
// restarts, the amnesiac member is re-admitted under a live epoch, the
// revived process finishes its remaining critical sections, and the
// monitor samples one rejoin latency.
func TestRestartRejoinCompletes(t *testing.T) {
	victim := mutex.ID(2) // first app of cluster 0
	entries := 0
	r := buildRig(t, 3, func(r *rig, id mutex.ID, inner mutex.Callbacks) mutex.Callbacks {
		if id != victim {
			return inner
		}
		return mutex.Callbacks{OnAcquire: func() {
			inner.OnAcquire()
			entries++
			if entries == 2 {
				r.crash(victim)
				r.sim.After(150*time.Millisecond, func() { r.restart(victim) })
			}
		}}
	})
	r.drive(t)
	r.assertClean(t)
	if r.mon.CrashExits() != 1 {
		t.Fatalf("crash exits %d, want 1", r.mon.CrashExits())
	}
	// The revived victim re-runs the 5 critical sections the crash
	// forfeited: 8 survivors × 6, plus the victim's 2 pre-crash and 5
	// post-rejoin entries.
	if got, want := len(r.runner.Records()), 8*6+2+5; got != want {
		t.Fatalf("records %d, want %d (revived process must finish its forfeited critical sections)", got, want)
	}
	if r.mon.Restarts() != 1 {
		t.Fatalf("monitor restarts %d, want 1", r.mon.Restarts())
	}
	if r.mon.Rejoins() < 1 {
		t.Fatal("monitor recorded no rejoin")
	}
	if lat := r.mon.RejoinLatencies(); len(lat) != 1 || lat[0] <= 0 {
		t.Fatalf("rejoin latencies %v, want one positive sample", lat)
	}
	vm := r.dep.Members[2] // intra members are ordered by cluster then id
	if vm.ID() != victim {
		t.Fatalf("member order changed: got id %d", vm.ID())
	}
	if s := vm.Stats(); s.Restarts != 1 || s.Rejoins != 1 || s.Rejoining {
		t.Fatalf("victim member stats %+v, want Restarts=1 Rejoins=1 and not rejoining", s)
	}
	for _, sb := range r.dep.Standbys {
		if sb.Activated() {
			t.Fatalf("standby %d activated though only an app crash-restarted", sb.ID())
		}
	}
}

// TestPartitionMinorityFreezeHeals cuts cluster 0 (2 of the 6 inter
// members) off the grid mid-run: the minority side must freeze rather than
// regenerate the inter token, requests on the cut side queue frozen, and
// the heal re-admits the strays so every process still completes — with a
// byte-identical trace per seed.
func TestPartitionMinorityFreezeHeals(t *testing.T) {
	run := func(seed int64) (dump string, records int) {
		r := buildRig(t, seed, nil)
		r.sim.After(100*time.Millisecond, func() {
			r.net.Partition([]int{0, 1, 2, 3, 4})
			r.tr.Record(trace.Custom, 0, mutex.None, "partition")
		})
		r.sim.After(1*time.Second, func() {
			r.net.Heal()
			r.tr.Record(trace.Custom, 0, mutex.None, "heal")
		})
		r.drive(t)
		r.assertClean(t)
		var freezes, minorityRegens int64
		for _, m := range r.dep.Members {
			if m.Group() != "inter" || m.ID() > 1 {
				continue
			}
			s := m.Stats()
			freezes += s.MinorityFreezes
			minorityRegens += s.Regenerations
			if s.Minority {
				t.Fatalf("inter member %d still minority-frozen after heal", m.ID())
			}
		}
		if freezes == 0 {
			t.Fatal("no inter member on the cut side minority-froze")
		}
		if minorityRegens != 0 {
			t.Fatalf("minority side announced %d regenerations; the quorum gate must forbid that", minorityRegens)
		}
		if c := r.net.Counters(); c.DroppedPartition == 0 {
			t.Fatal("no message was dropped at the cut")
		}
		return r.tr.Dump(), len(r.runner.Records())
	}
	d1, n1 := run(4)
	if want := 9 * 6; n1 != want {
		t.Fatalf("records %d, want %d (no process crashed, so the frozen queue must drain on heal)", n1, want)
	}
	d2, n2 := run(4)
	if d1 != d2 || n1 != n2 {
		t.Fatal("same seed produced different partitioned runs")
	}
	if !strings.Contains(d1, "partition") || !strings.Contains(d1, "heal") {
		t.Fatalf("trace misses partition/heal marks:\n%.400s", d1)
	}
}

// TestHookOrder builds a deployment, crashes cluster 0's primary and
// restarts it, then does the same to its standby, and records every hook
// call. On each epoch application the BuildOptions.OnEpoch observer runs
// before the primary's or standby's role hook, with the same membership
// slice; on a re-admission the role hook runs before BuildOptions.OnRejoin.
// The role hooks show through what they leave on cluster 0's standby: the
// takeover activates it, the primary's re-admission under an active standby
// makes the primary passive, and the standby's crash hands coordination back
// to the primary. An epoch role call is recorded after it returns, a rejoin
// role call before it starts.
func TestHookOrder(t *testing.T) {
	grid := topology.Uniform(3, 5, time.Millisecond, 20*time.Millisecond)
	sim := des.New()
	net := simnet.New(sim, grid, simnet.Options{Seed: 1})
	intra, inter := StaggeredTimeouts(20*time.Millisecond, 10*time.Millisecond)
	var (
		calls    []string
		observed []mutex.ID // the membership the observer last saw
		sb       *Standby
	)
	state := func() string { return fmt.Sprintf("active=%v passive=%v", sb.Activated(), sb.priPassive) }
	d, err := Build(net, grid, core.Spec{Intra: "naimi", Inter: "naimi"}, nil, sim, BuildOptions{
		Intra: intra, Inter: inter, NodeDown: net.Down,
		OnEpoch: func(group string, self mutex.ID, e Epoch, members []mutex.ID, holder mutex.ID) {
			observed = members
			calls = append(calls, fmt.Sprintf("epoch %s %d %v %v holder %d %s", group, self, e, members, holder, state()))
		},
		OnRejoin: func(group string, self mutex.ID, e Epoch) {
			calls = append(calls, fmt.Sprintf("rejoin %s %d %v %s", group, self, e, state()))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sb = d.Standbys[0]
	for _, m := range []*Member{sb.priIntra, sb.intraM} {
		onEpoch, onRejoin := m.cfg.OnEpoch, m.cfg.OnRejoin
		m.cfg.OnEpoch = func(e Epoch, members []mutex.ID, holder mutex.ID) {
			onEpoch(e, members, holder)
			if unsafe.SliceData(observed) != unsafe.SliceData(members) {
				t.Errorf("%d's role hook in %v got a membership the observer did not see", m.ID(), e)
			}
			calls = append(calls, fmt.Sprintf("role epoch %d %v %s", m.ID(), e, state()))
		}
		m.cfg.OnRejoin = func(e Epoch, members []mutex.ID, holder mutex.ID) {
			calls = append(calls, fmt.Sprintf("role rejoin %d %v %s", m.ID(), e, state()))
			onRejoin(e, members, holder)
		}
	}
	sim.After(100*time.Millisecond, func() { net.Crash(0) })
	sim.After(time.Second, func() { net.Restart(0) })
	sim.After(2*time.Second, func() { net.Crash(1) })
	sim.After(3*time.Second, func() { net.Restart(1) })
	sim.RunFor(4 * time.Second)
	d.Stop()
	want := []string{
		"epoch intra0 1 e1@1 [1 2 3 4] holder 1 active=false passive=false",
		"role epoch 1 e1@1 active=true passive=false",
		"epoch intra0 2 e1@1 [1 2 3 4] holder 1 active=true passive=false",
		"epoch intra0 3 e1@1 [1 2 3 4] holder 1 active=true passive=false",
		"epoch intra0 4 e1@1 [1 2 3 4] holder 1 active=true passive=false",
		"epoch inter 1 e1@1 [1 5 6 10 11] holder 1 active=true passive=false",
		"epoch inter 5 e1@1 [1 5 6 10 11] holder 1 active=true passive=false",
		"epoch inter 6 e1@1 [1 5 6 10 11] holder 1 active=true passive=false",
		"epoch inter 10 e1@1 [1 5 6 10 11] holder 1 active=true passive=false",
		"epoch inter 11 e1@1 [1 5 6 10 11] holder 1 active=true passive=false",
		"epoch intra0 1 e2@1 [0 1 2 3 4] holder 1 active=true passive=false",
		"role epoch 1 e2@1 active=true passive=false",
		"role rejoin 0 e2@1 active=true passive=false",
		"rejoin intra0 0 e2@1 active=true passive=true",
		"epoch intra0 0 e2@1 [0 1 2 3 4] holder 1 active=true passive=true",
		"role epoch 0 e2@1 active=true passive=true",
		"epoch intra0 2 e2@1 [0 1 2 3 4] holder 1 active=true passive=true",
		"epoch intra0 3 e2@1 [0 1 2 3 4] holder 1 active=true passive=true",
		"epoch intra0 4 e2@1 [0 1 2 3 4] holder 1 active=true passive=true",
		"epoch inter 1 e2@1 [0 1 5 6 10 11] holder 1 active=true passive=true",
		"rejoin inter 0 e2@1 active=true passive=true",
		"epoch inter 0 e2@1 [0 1 5 6 10 11] holder 1 active=true passive=true",
		"epoch inter 5 e2@1 [0 1 5 6 10 11] holder 1 active=true passive=true",
		"epoch inter 6 e2@1 [0 1 5 6 10 11] holder 1 active=true passive=true",
		"epoch inter 10 e2@1 [0 1 5 6 10 11] holder 1 active=true passive=true",
		"epoch inter 11 e2@1 [0 1 5 6 10 11] holder 1 active=true passive=true",
		"epoch intra0 0 e3@0 [0 2 3 4] holder 0 active=true passive=true",
		"role epoch 0 e3@0 active=false passive=false",
		"epoch intra0 2 e3@0 [0 2 3 4] holder 0 active=false passive=false",
		"epoch intra0 3 e3@0 [0 2 3 4] holder 0 active=false passive=false",
		"epoch intra0 4 e3@0 [0 2 3 4] holder 0 active=false passive=false",
		"epoch inter 0 e3@0 [0 5 6 10 11] holder 0 active=false passive=false",
		"epoch inter 5 e3@0 [0 5 6 10 11] holder 0 active=false passive=false",
		"epoch inter 6 e3@0 [0 5 6 10 11] holder 0 active=false passive=false",
		"epoch inter 10 e3@0 [0 5 6 10 11] holder 0 active=false passive=false",
		"epoch inter 11 e3@0 [0 5 6 10 11] holder 0 active=false passive=false",
		"epoch intra0 0 e4@0 [0 1 2 3 4] holder 0 active=false passive=false",
		"role epoch 0 e4@0 active=false passive=false",
		"role rejoin 1 e4@0 active=false passive=false",
		"rejoin intra0 1 e4@0 active=false passive=false",
		"epoch intra0 1 e4@0 [0 1 2 3 4] holder 0 active=false passive=false",
		"role epoch 1 e4@0 active=false passive=false",
		"epoch intra0 2 e4@0 [0 1 2 3 4] holder 0 active=false passive=false",
		"epoch intra0 3 e4@0 [0 1 2 3 4] holder 0 active=false passive=false",
		"epoch intra0 4 e4@0 [0 1 2 3 4] holder 0 active=false passive=false",
		"epoch inter 0 e4@0 [0 1 5 6 10 11] holder 0 active=false passive=false",
		"rejoin inter 1 e4@0 active=false passive=false",
		"epoch inter 1 e4@0 [0 1 5 6 10 11] holder 0 active=false passive=false",
		"epoch inter 5 e4@0 [0 1 5 6 10 11] holder 0 active=false passive=false",
		"epoch inter 6 e4@0 [0 1 5 6 10 11] holder 0 active=false passive=false",
		"epoch inter 10 e4@0 [0 1 5 6 10 11] holder 0 active=false passive=false",
		"epoch inter 11 e4@0 [0 1 5 6 10 11] holder 0 active=false passive=false",
	}
	if strings.Join(calls, "\n") != strings.Join(want, "\n") {
		t.Errorf("hook calls:\n%s\nwant:\n%s", strings.Join(calls, "\n"), strings.Join(want, "\n"))
	}
}
