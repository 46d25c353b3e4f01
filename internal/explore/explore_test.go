package explore_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/explore"
	"gridmutex/internal/mutex"
)

// fragileCentral is a deliberately broken central-server token algorithm:
// the server trusts every token-return message without sequencing, so a
// duplicated return mints a second token and two clients end up in the
// critical section together. It exists to prove the explorer catches the
// class of bug the fault actions model.
type fcReq struct{}

func (fcReq) Kind() string { return "fc.req" }

type fcGrant struct{}

func (fcGrant) Kind() string { return "fc.grant" }

type fcRet struct{}

func (fcRet) Kind() string { return "fc.ret" }

type fragileCentral struct {
	cfg    mutex.Config
	server mutex.ID
	state  mutex.State
	token  bool     // client: token held; server: token home
	busy   bool     // server only: token granted out
	out    mutex.ID // server only: whom the token is granted to
	queue  []mutex.ID
}

func newFragileCentral(cfg mutex.Config) (mutex.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &fragileCentral{cfg: cfg, server: cfg.Holder, token: cfg.Self == cfg.Holder, out: mutex.None}, nil
}

func (n *fragileCentral) fire() {
	n.state = mutex.InCS
	if cb := n.cfg.Callbacks.OnAcquire; cb != nil {
		n.cfg.Env.Local(cb)
	}
}

func (n *fragileCentral) serveNext() {
	if n.busy || !n.token || n.state == mutex.InCS {
		return
	}
	if n.state == mutex.Req {
		n.fire()
		return
	}
	if len(n.queue) > 0 {
		next := n.queue[0]
		n.queue = n.queue[1:]
		n.busy = true
		n.out = next
		n.cfg.Env.Send(next, fcGrant{})
	}
}

func (n *fragileCentral) Request() {
	n.state = mutex.Req
	if n.cfg.Self == n.server {
		n.serveNext()
		return
	}
	if n.token { // stale duplicate grant left a token behind: use it (the bug)
		n.fire()
		return
	}
	n.cfg.Env.Send(n.server, fcReq{})
}

func (n *fragileCentral) Release() {
	n.state = mutex.NoReq
	if n.cfg.Self == n.server {
		n.serveNext()
		return
	}
	n.token = false
	n.cfg.Env.Send(n.server, fcRet{})
}

func (n *fragileCentral) Deliver(from mutex.ID, m mutex.Message) {
	switch m.(type) {
	case fcReq:
		// Duplicate requests are deduplicated against the queue and the
		// outstanding grant (this part is robust); the returns below
		// are not.
		if from == n.out {
			return
		}
		for _, q := range n.queue {
			if q == from {
				return
			}
		}
		n.queue = append(n.queue, from)
		n.serveNext()
	case fcGrant:
		n.token = true
		if n.state == mutex.Req {
			n.fire()
		}
	case fcRet:
		// BUG: no sequencing — a duplicated return re-homes a token
		// that is still out.
		n.busy = false
		n.out = mutex.None
		n.token = true
		n.serveNext()
	}
}

func (n *fragileCentral) HasPending() bool { return len(n.queue) > 0 }
func (n *fragileCentral) HoldsToken() bool {
	if n.cfg.Self == n.server {
		return n.token && !n.busy
	}
	return n.token
}
func (n *fragileCentral) State() mutex.State { return n.state }

func fragileBuilder(n int) explore.Builder {
	return explore.FlatBuilder(newFragileCentral, n)
}

// TestDFSExhaustsCleanSystem: without faults the fragile algorithm is
// actually correct, and the 3-node/1-request space is small enough to
// exhaust completely.
func TestDFSExhaustsCleanSystem(t *testing.T) {
	res, err := explore.ExploreDFS(fragileBuilder(3), explore.Options{
		RequestsPerApp:    1,
		MaxSteps:          64,
		CheckTokenHolders: true,
		WantTokenHolders:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("unexpected violation: %v\nschedule: %s", res.Counterexample.Violations, res.Counterexample.Schedule)
	}
	if !res.Exhausted || res.Truncated != 0 {
		t.Fatalf("space not exhausted: %d schedules, %d truncated, exhausted=%v",
			res.Schedules, res.Truncated, res.Exhausted)
	}
	if res.Schedules < 10 || res.States < 10 {
		t.Fatalf("implausibly small exploration: %d schedules, %d states", res.Schedules, res.States)
	}
	t.Logf("exhausted: %d schedules, %d states, %d steps, %d pruned", res.Schedules, res.States, res.Steps, res.Pruned)
}

func dupOpts() explore.Options {
	return explore.Options{
		RequestsPerApp: 2,
		MaxSteps:       48,
		MaxDuplicates:  1,
	}
}

// TestDuplicationBugCaught is the end-to-end counterexample pipeline: the
// DFS finds the duplicate-return double token, the schedule minimizes,
// and the minimized schedule replays to the same violation byte-for-byte,
// including through a JSON round trip.
func TestDuplicationBugCaught(t *testing.T) {
	b := fragileBuilder(3)
	opts := dupOpts()
	res, err := explore.ExploreDFS(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatalf("duplicate-delivery bug not found in %d schedules", res.Schedules)
	}
	cex := res.Counterexample
	safety := false
	for _, v := range cex.Violations {
		if strings.HasPrefix(v, "safety:") {
			safety = true
		}
	}
	if !safety {
		t.Fatalf("expected a safety violation, got %v", cex.Violations)
	}

	min, vio, err := explore.Minimize(b, cex.Schedule, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) > len(cex.Schedule) {
		t.Fatalf("minimization grew the schedule: %d -> %d", len(cex.Schedule), len(min))
	}
	if len(vio) == 0 {
		t.Fatal("minimized schedule reports no violations")
	}

	// Byte-for-byte replay: twice directly, once through JSON.
	replayed, err := explore.Replay(b, min, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(vio, "\n")
	if got := strings.Join(replayed, "\n"); got != want {
		t.Fatalf("replay diverged from minimizer:\n got: %s\nwant: %s", got, want)
	}
	parsed, err := explore.ParseSchedule(min.JSON())
	if err != nil {
		t.Fatal(err)
	}
	replayed2, err := explore.Replay(b, parsed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(replayed2, "\n"); got != want {
		t.Fatalf("JSON round-tripped replay diverged:\n got: %s\nwant: %s", got, want)
	}
	t.Logf("counterexample %d steps, minimized to %d: %s", len(cex.Schedule), len(min), min)
	t.Logf("violation: %s", want)
}

// TestDropDeadlockCaught: a single dropped message deadlocks the fragile
// algorithm and the terminal/bounded-liveness assertions report it.
func TestDropDeadlockCaught(t *testing.T) {
	res, err := explore.ExploreDFS(fragileBuilder(3), explore.Options{
		RequestsPerApp: 1,
		MaxSteps:       48,
		MaxDrops:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatalf("drop deadlock not found in %d schedules", res.Schedules)
	}
	found := false
	for _, v := range res.Counterexample.Violations {
		if strings.HasPrefix(v, "terminal:") || strings.HasPrefix(v, "liveness:") || strings.HasPrefix(v, "quiescence:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a terminal/liveness violation, got %v", res.Counterexample.Violations)
	}
}

// TestDFSDeterministic: the same options produce the identical
// counterexample, byte for byte.
func TestDFSDeterministic(t *testing.T) {
	b := fragileBuilder(3)
	opts := dupOpts()
	r1, err := explore.ExploreDFS(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := explore.ExploreDFS(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counterexample == nil || r2.Counterexample == nil {
		t.Fatal("expected counterexamples from both runs")
	}
	if !bytes.Equal(r1.Counterexample.JSON(), r2.Counterexample.JSON()) {
		t.Fatalf("DFS not deterministic:\n%s\nvs\n%s", r1.Counterexample.JSON(), r2.Counterexample.JSON())
	}
	if r1.Schedules != r2.Schedules || r1.Steps != r2.Steps {
		t.Fatalf("DFS accounting not deterministic: %+v vs %+v", r1, r2)
	}
}

// randomWalk draws one schedule of b at random through the public Replay:
// each step extends the schedule with a delivery (or, within
// opts.MaxDuplicates, a duplication) on a link with a message in flight,
// or a request or release at one of nodes — the first of them, in rng's
// order, that replays. The walk ends at the first violation, at
// opts.MaxSteps, or where no extension replays: a terminal state, on which
// Replay has run the terminal assertions.
func randomWalk(b explore.Builder, nodes []mutex.ID, opts explore.Options, rng *rand.Rand) (explore.Schedule, []string, error) {
	var last *explore.System
	tap := func() (*explore.System, error) {
		s, err := b()
		last = s
		return s, err
	}
	var sched explore.Schedule
	v, err := explore.Replay(tap, sched, opts)
	for dups := 0; err == nil && len(v) == 0 && len(sched) < opts.MaxSteps; {
		var cands []explore.Choice
		for _, m := range last.World.Inflight() {
			cands = append(cands, explore.Choice{Op: explore.OpDeliver, From: m.From, To: m.To})
			if dups < opts.MaxDuplicates {
				cands = append(cands, explore.Choice{Op: explore.OpDuplicate, From: m.From, To: m.To})
			}
		}
		for _, id := range nodes {
			cands = append(cands, explore.Choice{Op: explore.OpRequest, Node: id}, explore.Choice{Op: explore.OpRelease, Node: id})
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		extended := false
		for _, c := range cands {
			next := append(sched[:len(sched):len(sched)], c)
			if cv, cerr := explore.Replay(tap, next, opts); cerr == nil {
				sched, v, extended = next, cv, true
				if c.Op == explore.OpDuplicate {
					dups++
				}
				break
			}
		}
		if !extended {
			break
		}
	}
	return sched, v, err
}

// TestExploreRandomFindsBug: random walks through Replay find the
// duplication bug too, deterministically for a fixed seed, and the
// violating schedule replays to the same violations.
func TestExploreRandomFindsBug(t *testing.T) {
	b := fragileBuilder(3)
	opts := dupOpts()
	find := func(seed int64) (explore.Schedule, []string) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for walk := 1; walk <= 2000; walk++ {
			sched, v, err := randomWalk(b, []mutex.ID{0, 1, 2}, opts, rng)
			if err != nil {
				t.Fatal(err)
			}
			if len(v) > 0 {
				t.Logf("seed %d: violation on walk %d, %d steps", seed, walk, len(sched))
				return sched, v
			}
		}
		t.Fatalf("seed %d: 2000 random walks missed the bug", seed)
		return nil, nil
	}
	s1, v1 := find(42)
	if !strings.HasPrefix(strings.Join(v1, "\n"), "safety:") {
		t.Fatalf("expected a safety violation, got %v", v1)
	}
	s2, v2 := find(42)
	if !bytes.Equal(s1.JSON(), s2.JSON()) || strings.Join(v1, "\n") != strings.Join(v2, "\n") {
		t.Fatalf("random walks not deterministic for a fixed seed:\n%s\nvs\n%s", s1.JSON(), s2.JSON())
	}
	replayed, err := explore.Replay(b, s1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(replayed, "\n"), strings.Join(v1, "\n"); got != want {
		t.Fatalf("replay diverged from the walk:\n got: %s\nwant: %s", got, want)
	}
	// A different seed still finds it (the bug is not seed-dependent),
	// though possibly after a different number of walks.
	find(7)
}

// TestReplayInapplicable: a schedule that references a message that is
// not in flight errors instead of silently diverging.
func TestReplayInapplicable(t *testing.T) {
	sched := explore.Schedule{{Op: explore.OpDeliver, From: 1, To: 2}}
	if _, err := explore.Replay(fragileBuilder(3), sched, explore.Options{}); err == nil {
		t.Fatal("expected an error replaying an inapplicable schedule")
	}
}

// TestScheduleJSONRoundTrip: serialization preserves every field.
func TestScheduleJSONRoundTrip(t *testing.T) {
	in := explore.Schedule{
		{Op: explore.OpRequest, Node: 2},
		{Op: explore.OpDeliver, From: 2, To: 0},
		{Op: explore.OpDuplicate, From: 0, To: 1},
		{Op: explore.OpCrash, Node: 1},
		{Op: explore.OpRestart, Node: 1},
		{Op: explore.OpPartition, Node: 0},
		{Op: explore.OpHeal},
		{Op: explore.OpDrop, From: 0, To: 1},
		{Op: explore.OpRelease, Node: 1},
	}
	out, err := explore.ParseSchedule(in.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip changed length: %d -> %d", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("step %d changed: %+v -> %+v", i, in[i], out[i])
		}
	}
}

// TestParseScheduleRejects: a step with a field Choice does not have, or
// an op the explorer does not know, is a parse error that names the step,
// not a schedule that parses and then diverges (or fails only in Replay).
func TestParseScheduleRejects(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"misspelt field", `[{"op":"deliver","form":2,"to":1}]`, `step 1: json: unknown field "form"`},
		{"stale idx", `[{"op":"request","node":1},{"op":"deliver","from":1,"to":0,"idx":1}]`, `step 2: json: unknown field "idx"`},
		{"unknown op", `[{"op":"teleport","node":1}]`, `step 1: unknown op "teleport"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := explore.ParseSchedule([]byte(tc.in))
			if err == nil {
				t.Fatalf("parsed without error as %s", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

// crashBuilder explores a real registered algorithm under crash faults.
func crashBuilder(t *testing.T, name string, n int) explore.Builder {
	t.Helper()
	f, err := algorithms.Factory(name)
	if err != nil {
		t.Fatal(err)
	}
	return explore.FlatBuilder(f, n)
}

// faultRow is one fault space of a flat 3-process algorithm.
type faultRow struct {
	name, alg string
	opts      explore.Options
}

// exhaustSafe explores each row to exhaustion and fails on a safety
// violation, on a schedule cut at MaxSteps, or on a space left unfinished.
// Fault budgets make the exploration safety-only (see Options.MaxCrashes).
func exhaustSafe(t *testing.T, rows []faultRow) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			// A runaway guard only: every row must exhaust below it.
			r.opts.MaxSchedules = 1 << 20
			res, err := explore.ExploreDFS(crashBuilder(t, r.alg, 3), r.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counterexample != nil {
				t.Fatalf("safety violation:\n%s\n%v",
					res.Counterexample.Schedule, res.Counterexample.Violations)
			}
			if !res.Exhausted || res.Truncated != 0 {
				t.Fatalf("space not exhausted: %d schedules, %d truncated, exhausted=%v",
					res.Schedules, res.Truncated, res.Exhausted)
			}
			t.Logf("%d schedules, %d states, %d pruned, exhausted=%v",
				res.Schedules, res.States, res.Pruned, res.Exhausted)
		})
	}
}

// TestCrashExploreSafeDFS: under a budget of one fail-stop crash at any
// schedule point, no delivery ordering of the token algorithms produces a
// safety violation — survivors may stall (the token died), but two
// processes never overlap in the critical section.
func TestCrashExploreSafeDFS(t *testing.T) {
	one := explore.Options{RequestsPerApp: 1, MaxSteps: 40, MaxCrashes: 1}
	two := explore.Options{RequestsPerApp: 2, MaxSteps: 64, MaxCrashes: 1}
	exhaustSafe(t, []faultRow{
		{"naimi", "naimi", one},            // 813 schedules
		{"suzuki", "suzuki", one},          // 6,824
		{"naimi-2-requests", "naimi", two}, // 7,979
	})
}

// TestCrashScheduleReplay: a hand-written schedule containing a crash step
// replays cleanly and deterministically, including through JSON.
func TestCrashScheduleReplay(t *testing.T) {
	b := crashBuilder(t, "naimi", 3)
	opts := explore.Options{RequestsPerApp: 1, MaxSteps: 40, MaxCrashes: 1}
	sched := explore.Schedule{
		{Op: explore.OpCrash, Node: 0}, // the initial token holder dies
		{Op: explore.OpRequest, Node: 1},
		{Op: explore.OpDeliver, From: 1, To: 0}, // request into the void
	}
	v, err := explore.Replay(b, sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("clean crash schedule reported violations: %v", v)
	}
	parsed, err := explore.ParseSchedule(sched.JSON())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := explore.Replay(b, parsed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2) != 0 {
		t.Fatalf("JSON round-tripped crash schedule reported violations: %v", v2)
	}
	// A second crash exceeds the budget's enabled set but Replay still
	// applies it mechanically; crashing the same node twice is an error.
	if _, err := explore.Replay(b, explore.Schedule{
		{Op: explore.OpCrash, Node: 0},
		{Op: explore.OpCrash, Node: 0},
	}, opts); err == nil {
		t.Fatal("double crash of one node replayed without error")
	}
}

// TestRestartExploreSafeDFS: under a budget of one crash and one amnesiac
// restart, no ordering of crash, restart, deliveries, and requests
// produces a safety violation. The rebuilt instance never believes it
// holds the token (FlatBuilder points its Holder at another member), so a
// claim that died with the crash is never resurrected — the restarted
// process may stall waiting on a dead token, but two processes never
// overlap in the critical section. The all-faults rows add a partition
// cut and its heal to the same budget.
func TestRestartExploreSafeDFS(t *testing.T) {
	one := explore.Options{RequestsPerApp: 1, MaxSteps: 32, MaxCrashes: 1, MaxRestarts: 1}
	all := explore.Options{RequestsPerApp: 1, MaxSteps: 32, MaxCrashes: 1, MaxRestarts: 1, MaxPartitions: 1}
	allTwo := explore.Options{RequestsPerApp: 2, MaxSteps: 64, MaxCrashes: 1, MaxRestarts: 1, MaxPartitions: 1}
	exhaustSafe(t, []faultRow{
		{"naimi", "naimi", one},                          // 1,540 schedules
		{"suzuki", "suzuki", one},                        // 12,084
		{"suzuki-all-faults", "suzuki", all},             // 112,454
		{"naimi-all-faults-2-requests", "naimi", allTwo}, // 264,378
	})
}

// TestPartitionExploreSafeDFS: isolating any single node behind a cut —
// every message crossing it dropped at delivery time — and healing it at
// any schedule point never produces a safety violation. Requests on the
// majority side may stall while the token holder is cut off; the heal
// step lets in-flight traffic resume.
func TestPartitionExploreSafeDFS(t *testing.T) {
	one := explore.Options{RequestsPerApp: 1, MaxSteps: 32, MaxPartitions: 1}
	exhaustSafe(t, []faultRow{
		{"naimi", "naimi", one},   // 1,780 schedules
		{"suzuki", "suzuki", one}, // 10,793
	})
}

// TestRestartScheduleReplay: a hand-written schedule exercising every new
// fault op replays cleanly, survives a JSON round trip, and the
// inapplicable variants error instead of silently diverging.
func TestRestartScheduleReplay(t *testing.T) {
	b := crashBuilder(t, "naimi", 3)
	opts := explore.Options{RequestsPerApp: 1, MaxSteps: 40, MaxCrashes: 1, MaxRestarts: 1, MaxPartitions: 1}
	sched := explore.Schedule{
		{Op: explore.OpCrash, Node: 0}, // the initial holder dies with its token
		{Op: explore.OpRestart, Node: 0},
		// The resync epoch designated node 1 (lowest survivor) holder;
		// the revived node 0 re-requests across a cut-off node 2.
		{Op: explore.OpPartition, Node: 2},
		{Op: explore.OpRequest, Node: 0},
		{Op: explore.OpDeliver, From: 0, To: 1},
		{Op: explore.OpHeal},
	}
	v, err := explore.Replay(b, sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("clean restart schedule reported violations: %v", v)
	}
	parsed, err := explore.ParseSchedule(sched.JSON())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := explore.Replay(b, parsed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2) != 0 {
		t.Fatalf("JSON round-tripped restart schedule reported violations: %v", v2)
	}
	// Restarting a node that never crashed is an error.
	if _, err := explore.Replay(b, explore.Schedule{
		{Op: explore.OpRestart, Node: 0},
	}, opts); err == nil {
		t.Fatal("restart of a live node replayed without error")
	}
	// A second concurrent cut and a heal without a cut are errors.
	if _, err := explore.Replay(b, explore.Schedule{
		{Op: explore.OpPartition, Node: 0},
		{Op: explore.OpPartition, Node: 1},
	}, opts); err == nil {
		t.Fatal("overlapping partition cuts replayed without error")
	}
	if _, err := explore.Replay(b, explore.Schedule{
		{Op: explore.OpHeal},
	}, opts); err == nil {
		t.Fatal("heal without an active cut replayed without error")
	}
}
