package simnet

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
	"gridmutex/internal/topology"
)

// ping is a minimal message for transport tests; n is a payload the tests
// read back (a sequence number or a bounce budget).
type ping struct {
	kind string
	n    int
}

func (p ping) Kind() string { return p.kind }

type delivery struct {
	at   des.Time
	from mutex.ID
	m    mutex.Message
}

type recorder struct {
	sim *des.Simulator
	got []delivery
}

func (r *recorder) Deliver(from mutex.ID, m mutex.Message) {
	r.got = append(r.got, delivery{r.sim.Now(), from, m})
}

func twoClusterNet(t *testing.T, opts Options) (*des.Simulator, *Network, *recorder, *recorder) {
	t.Helper()
	sim := des.New()
	// 2 clusters of 2 nodes; 2ms local RTT, 20ms remote RTT.
	g := topology.Uniform(2, 2, 2*time.Millisecond, 20*time.Millisecond)
	n := New(sim, g, opts)
	r0, r2 := &recorder{sim: sim}, &recorder{sim: sim}
	n.Register(0, r0)
	n.Register(2, r2)
	return sim, n, r0, r2
}

func TestLatencyIntraVsInter(t *testing.T) {
	sim, n, r0, r2 := twoClusterNet(t, Options{})
	n.Register(1, HandlerFunc(func(mutex.ID, mutex.Message) {}))
	ep1 := n.Endpoint(1)
	ep1.Send(0, ping{"p", 10}) // intra: one-way 1ms
	ep1.Send(2, ping{"p", 10}) // inter: one-way 10ms
	sim.Run()
	if len(r0.got) != 1 || r0.got[0].at != time.Millisecond {
		t.Fatalf("intra delivery %+v, want at 1ms", r0.got)
	}
	if len(r2.got) != 1 || r2.got[0].at != 10*time.Millisecond {
		t.Fatalf("inter delivery %+v, want at 10ms", r2.got)
	}
	if r2.got[0].from != 1 {
		t.Fatalf("from = %d, want 1", r2.got[0].from)
	}
}

func TestCounters(t *testing.T) {
	sim, n, _, _ := twoClusterNet(t, Options{KindCounts: true})
	n.Register(1, HandlerFunc(func(mutex.ID, mutex.Message) {}))
	ep1 := n.Endpoint(1)
	ep1.Send(0, ping{"a", 10})
	ep1.Send(2, ping{"b", 100})
	ep1.Send(2, ping{"b", 100})
	sim.Run()
	c := n.Counters()
	if c.Messages != 3 {
		t.Errorf("total = %d msgs, want 3", c.Messages)
	}
	if c.IntraMessages != 1 {
		t.Errorf("intra = %d msgs, want 1", c.IntraMessages)
	}
	if c.InterMessages != 2 {
		t.Errorf("inter = %d msgs, want 2", c.InterMessages)
	}
	if c.ByKind["a"] != 1 || c.ByKind["b"] != 2 {
		t.Errorf("ByKind = %v", c.ByKind)
	}
}

// Without KindCounts the hot path must touch no maps: ByKind stays nil
// while the scalar counters still accumulate.
func TestCountersByKindOptIn(t *testing.T) {
	sim, n, _, _ := twoClusterNet(t, Options{})
	n.Register(1, HandlerFunc(func(mutex.ID, mutex.Message) {}))
	ep1 := n.Endpoint(1)
	ep1.Send(0, ping{"a", 10})
	ep1.Send(2, ping{"b", 100})
	sim.Run()
	c := n.Counters()
	if c.Messages != 2 {
		t.Errorf("total = %d msgs, want 2", c.Messages)
	}
	if c.ByKind != nil {
		t.Errorf("ByKind = %v, want nil without KindCounts", c.ByKind)
	}
}

// A Counters value is a snapshot: traffic after the call must not show up
// in it, the ByKind map included.
func TestCountersSnapshot(t *testing.T) {
	sim, n, _, _ := twoClusterNet(t, Options{KindCounts: true})
	ep0 := n.Endpoint(0)
	ep0.Send(2, ping{"a", 10})
	snap := n.Counters()
	ep0.Send(2, ping{"a", 10})
	ep0.Send(2, ping{"b", 10})
	sim.Run()
	if snap.Messages != 1 || len(snap.ByKind) != 1 || snap.ByKind["a"] != 1 {
		t.Errorf("snapshot moved after later sends: %+v", snap)
	}
	if c := n.Counters(); c.ByKind["a"] != 2 || c.ByKind["b"] != 1 {
		t.Errorf("live counters = %v, want a:2 b:1", c.ByKind)
	}
}

func TestFIFOPerLinkUnderJitter(t *testing.T) {
	sim, n, _, r2 := twoClusterNet(t, Options{Jitter: 0.9, Seed: 42})
	ep0 := n.Endpoint(0)
	const k = 50
	for i := 0; i < k; i++ {
		i := i
		sim.At(des.Time(i)*time.Microsecond, func() { ep0.Send(2, ping{"seq", i}) })
	}
	sim.Run()
	if len(r2.got) != k {
		t.Fatalf("delivered %d, want %d", len(r2.got), k)
	}
	for i, d := range r2.got {
		if d.m.(ping).n != i {
			t.Fatalf("message %d delivered out of order (got payload %d)", i, d.m.(ping).n)
		}
		if i > 0 && d.at <= r2.got[i-1].at {
			t.Fatalf("non-increasing delivery times at %d: %v then %v", i, r2.got[i-1].at, d.at)
		}
	}
}

// TestFIFOAtTheEndOfTime: messages sent so close to the largest Time that
// their delay would wrap all arrive at that instant, in send order, where
// the FIFO bump on a wrapped arrival scheduled into the past and panicked.
func TestFIFOAtTheEndOfTime(t *testing.T) {
	const end = des.Time(math.MaxInt64)
	sim, n, _, r2 := twoClusterNet(t, Options{Jitter: 0.9, Seed: 42})
	ep0 := n.Endpoint(0)
	const k = 5
	sim.At(end-time.Millisecond, func() {
		for i := range k {
			ep0.Send(2, ping{"seq", i})
		}
	})
	sim.Run()
	if len(r2.got) != k {
		t.Fatalf("delivered %d, want %d", len(r2.got), k)
	}
	for i, d := range r2.got {
		if d.m.(ping).n != i || d.at != end {
			t.Fatalf("delivery %d is message %d at %v, want message %d at %v", i, d.m.(ping).n, d.at, i, end)
		}
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []des.Time {
		sim, n, _, r2 := twoClusterNet(t, Options{Jitter: 0.5, Seed: seed})
		ep0 := n.Endpoint(0)
		for i := 0; i < 10; i++ {
			sim.At(des.Time(i)*time.Millisecond, func() { ep0.Send(2, ping{"p", 1}) })
		}
		sim.Run()
		out := make([]des.Time, len(r2.got))
		for i, d := range r2.got {
			out[i] = d.at
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestLocalRunsAfterCurrentHandler(t *testing.T) {
	sim := des.New()
	g := topology.Single(2, time.Millisecond)
	n := New(sim, g, Options{})
	var order []string
	ep0 := n.Endpoint(0)
	n.Register(0, HandlerFunc(func(mutex.ID, mutex.Message) {}))
	n.Register(1, HandlerFunc(func(from mutex.ID, m mutex.Message) {
		ep1 := n.Endpoint(1)
		ep1.Local(func() { order = append(order, "local") })
		order = append(order, "handler")
	}))
	ep0.Send(1, ping{"p", 1})
	sim.Run()
	if len(order) != 2 || order[0] != "handler" || order[1] != "local" {
		t.Fatalf("order = %v, want [handler local]", order)
	}
}

func TestSelfSendDelivers(t *testing.T) {
	sim := des.New()
	g := topology.Single(1, 2*time.Millisecond)
	n := New(sim, g, Options{})
	r := &recorder{sim: sim}
	n.Register(0, r)
	n.Endpoint(0).Send(0, ping{"self", 1})
	sim.Run()
	if len(r.got) != 1 || r.got[0].at != time.Millisecond {
		t.Fatalf("self-send: %+v", r.got)
	}
}

func TestPanics(t *testing.T) {
	sim := des.New()
	g := topology.Single(2, time.Millisecond)
	n := New(sim, g, Options{})
	n.Register(0, HandlerFunc(func(mutex.ID, mutex.Message) {}))

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("duplicate register", func() { n.Register(0, HandlerFunc(func(mutex.ID, mutex.Message) {})) })
	expectPanic("out of range register", func() { n.Register(99, HandlerFunc(func(mutex.ID, mutex.Message) {})) })
	expectPanic("nil handler", func() { n.Register(1, nil) })
	expectPanic("send to unregistered", func() { n.Endpoint(0).Send(1, ping{"p", 1}) })
	expectPanic("nil message", func() { n.Endpoint(0).Send(0, nil) })
	expectPanic("negative jitter", func() { New(sim, g, Options{Jitter: -1}) })
}

func TestLossInjection(t *testing.T) {
	sim := des.New()
	g := topology.Single(2, 2*time.Millisecond)
	n := New(sim, g, Options{Loss: 0.5, Seed: 11})
	delivered := 0
	n.Register(0, HandlerFunc(func(mutex.ID, mutex.Message) {}))
	n.Register(1, HandlerFunc(func(mutex.ID, mutex.Message) { delivered++ }))
	ep := n.Endpoint(0)
	const k = 400
	for i := 0; i < k; i++ {
		ep.Send(1, ping{"p", 1})
	}
	sim.Run()
	c := n.Counters()
	if c.Messages != k {
		t.Fatalf("sent accounting %d, want %d (drops still count as sends)", c.Messages, k)
	}
	if c.Dropped == 0 || c.Dropped == k {
		t.Fatalf("Dropped = %d, want strictly between 0 and %d", c.Dropped, k)
	}
	if int64(delivered)+c.Dropped != k {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, c.Dropped, k)
	}
	// 50% loss: expect within generous bounds.
	if c.Dropped < k/4 || c.Dropped > 3*k/4 {
		t.Fatalf("Dropped = %d, implausible for 50%% loss of %d", c.Dropped, k)
	}
}

func TestLossValidation(t *testing.T) {
	g := topology.Single(1, time.Millisecond)
	cases := []struct {
		loss float64
		ok   bool
	}{
		{0, true},
		{0.5, true},
		{0.999, true},
		{1.0, false},
		{1.5, false},
		{-0.1, false},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if r := recover(); (r == nil) != c.ok {
					t.Errorf("loss %v: panic=%v, want ok=%v", c.loss, r, c.ok)
				}
			}()
			New(des.New(), g, Options{Loss: c.loss})
		}()
	}
}

// TestRegisterAtColocation: two logical processes on one physical node
// exchange messages at intra-node latency.
func TestRegisterAtColocation(t *testing.T) {
	sim := des.New()
	g := topology.Uniform(2, 1, 2*time.Millisecond, 20*time.Millisecond)
	n := New(sim, g, Options{})
	var at des.Time
	n.RegisterAt(0, 0, HandlerFunc(func(mutex.ID, mutex.Message) {}))
	n.RegisterAt(7, 0, HandlerFunc(func(mutex.ID, mutex.Message) { at = sim.Now() })) // co-located logical process
	n.Endpoint(0).Send(7, ping{"p", 1})
	sim.Run()
	if at != time.Millisecond {
		t.Fatalf("co-located delivery at %v, want 1ms (local latency)", at)
	}
	if n.Counters().InterMessages != 0 {
		t.Fatal("co-located traffic misclassified as inter-cluster")
	}
}

// TestSendDeliverAllocs pins the steady-state send→deliver path: once the
// event queue has grown to its high-water mark, sending a message through
// the network and delivering it allocates at most one heap object per
// message (the interface boxing of the message value itself when the
// caller constructs it; the transport adds nothing).
func TestSendDeliverAllocs(t *testing.T) {
	sim := des.New()
	g := topology.Uniform(2, 2, 2*time.Millisecond, 20*time.Millisecond)
	n := New(sim, g, Options{Jitter: 0.2, Seed: 3})
	for id := mutex.ID(0); id < 4; id++ {
		n.Register(id, HandlerFunc(func(mutex.ID, mutex.Message) {}))
	}
	ep := n.Endpoint(0)
	msg := mutex.Message(ping{"p", 16}) // box once, outside the measured loop
	// Warm the queue's backing array.
	for i := 0; i < 256; i++ {
		ep.Send(mutex.ID(i%4), msg)
	}
	sim.Run()
	const batch = 256
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			ep.Send(mutex.ID(i%4), msg)
		}
		sim.Run()
	})
	if perMsg := allocs / batch; perMsg > 1 {
		t.Errorf("send→deliver allocates %.2f objects per message, want <= 1", perMsg)
	}
}

// BenchmarkSendDeliver measures the raw transport hot path: one send and
// its delivery through the simulator, jitter enabled (the realistic
// configuration used by every experiment). The broadcast case is the FIFO
// lists' worst one: a sender with k messages in flight scans k watermarks
// per send, so one 1,000-way broadcast costs O(k²) where a process×process
// table would cost O(k). No committed experiment broadcasts that wide; the
// number is here so that one that does knows the price.
func BenchmarkSendDeliver(b *testing.B) {
	for _, c := range []struct {
		name          string
		clusters, per int
		fanout, drain int
	}{
		{"2x2", 2, 2, 4, 256},
		{"broadcast-1000", 11, 91, 1000, 1000},
	} {
		b.Run(c.name, func(b *testing.B) {
			sim := des.New()
			g := topology.Uniform(c.clusters, c.per, 2*time.Millisecond, 20*time.Millisecond)
			n := New(sim, g, Options{Jitter: 0.2, Seed: 3})
			for id := 0; id < g.NumNodes(); id++ {
				n.Register(mutex.ID(id), HandlerFunc(func(mutex.ID, mutex.Message) {}))
			}
			ep := n.Endpoint(0)
			msg := mutex.Message(ping{"p", 16})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ep.Send(mutex.ID(i%c.fanout), msg)
				if i%c.drain == c.drain-1 {
					sim.Run()
				}
			}
			sim.Run()
		})
	}
}

// TestCrashClassifiedAtDelivery pins the fail-stop boundary semantics:
// whether a message is lost depends on the destination's state when the
// message *arrives*, never on its state at the send instant.
func TestCrashClassifiedAtDelivery(t *testing.T) {
	t.Run("crash mid-flight drops", func(t *testing.T) {
		sim, n, _, r2 := twoClusterNet(t, Options{})
		n.Register(1, HandlerFunc(func(mutex.ID, mutex.Message) {}))
		n.Endpoint(1).Send(2, ping{"p", 8}) // in flight until 10ms
		sim.At(5*time.Millisecond, func() { n.Crash(2) })
		sim.Run()
		if len(r2.got) != 0 {
			t.Fatalf("dead node received %+v", r2.got)
		}
		if c := n.Counters(); c.DroppedDead != 1 || c.Messages != 1 {
			t.Fatalf("counters %+v, want DroppedDead=1 Messages=1", c)
		}
	})
	t.Run("restart before delivery receives", func(t *testing.T) {
		sim, n, _, r2 := twoClusterNet(t, Options{})
		n.Register(1, HandlerFunc(func(mutex.ID, mutex.Message) {}))
		n.Endpoint(1).Send(2, ping{"p", 8})
		sim.At(2*time.Millisecond, func() { n.Crash(2) })
		sim.At(8*time.Millisecond, func() { n.Restart(2) })
		sim.Run()
		if len(r2.got) != 1 || r2.got[0].at != 10*time.Millisecond {
			t.Fatalf("delivery %+v, want one at 10ms", r2.got)
		}
		if c := n.Counters(); c.DroppedDead != 0 {
			t.Fatalf("DroppedDead = %d, want 0", c.DroppedDead)
		}
	})
	t.Run("sent while down, up at arrival, receives", func(t *testing.T) {
		// The regression: a send-time check used to discard this message
		// even though the destination was back up when it arrived.
		sim, n, _, r2 := twoClusterNet(t, Options{})
		n.Register(1, HandlerFunc(func(mutex.ID, mutex.Message) {}))
		n.Crash(2)
		sim.At(time.Millisecond, func() { n.Endpoint(1).Send(2, ping{"p", 8}) })
		sim.At(5*time.Millisecond, func() { n.Restart(2) })
		sim.Run()
		if len(r2.got) != 1 || r2.got[0].at != 11*time.Millisecond {
			t.Fatalf("delivery %+v, want one at 11ms", r2.got)
		}
		if c := n.Counters(); c.DroppedDead != 0 || c.Messages != 1 {
			t.Fatalf("counters %+v, want DroppedDead=0 Messages=1", c)
		}
	})
}

// bouncer returns every message to its sender with one fewer hop,
// logging each delivery.
type bouncer struct {
	ep   mutex.Env
	self mutex.ID
	now  func() des.Time
	log  []string
}

func (b *bouncer) Deliver(from mutex.ID, m mutex.Message) {
	p := m.(ping)
	b.log = append(b.log, fmt.Sprintf("%d<-%d@%v", b.self, from, b.now()))
	if p.n > 0 {
		b.ep.Send(from, ping{p.kind, p.n - 1})
	}
}

// stubGrid is a synthetic grid of n nodes in clusters of three whose every
// link has zero latency: a message lands in the instant it is sent, so a
// FIFO watermark equal to Now() is still live and the next send on the link
// must bump past it.
type stubGrid struct{ n int }

func (g stubGrid) NumNodes() int            { return g.n }
func (stubGrid) ClusterOf(n int) int        { return n / 3 }
func (stubGrid) RTT(_, _ int) time.Duration { return 0 }

// stormGrids are the 9-node grids of the recorded storms.
var stormGrids = []struct {
	name string
	grid gridModel
}{
	{"uniform", topology.Uniform(3, 3, 2*time.Millisecond, 20*time.Millisecond)},
	{"zero-latency", stubGrid{9}},
}

// runStorm drives a deterministic jittered, lossy bounce storm with a
// mid-run crash and partition window, returning per-node delivery logs and
// counters. On top of the bounces, six rounds 35 ms apart each put a
// same-instant burst on one link and a 10-way broadcast from one sender:
// watermarks of earlier rounds have landed by the next, and some broadcasts
// are in flight across the crash and the restart.
func runStorm(t *testing.T, g gridModel) ([][]string, Counters) {
	t.Helper()
	sim := des.New()
	n := New(sim, g, Options{Jitter: 0.5, Seed: 17, Loss: 0.05})
	bs := make([]*bouncer, 9)
	for id := 0; id < 9; id++ {
		bs[id] = &bouncer{ep: n.Endpoint(mutex.ID(id)), self: mutex.ID(id), now: sim.Now}
		n.Register(mutex.ID(id), bs[id])
	}
	// A co-located coordinator process beyond the topology node count, so
	// the storm covers hierarchical registration too.
	coord := &bouncer{ep: n.Endpoint(100), self: 100, now: sim.Now}
	n.RegisterAt(100, 4, coord)
	bs[0].ep.Send(1, ping{"a", 30})
	bs[0].ep.Send(3, ping{"b", 30})
	bs[8].ep.Send(2, ping{"c", 30})
	bs[5].ep.Send(100, ping{"d", 30})
	sim.At(40*time.Millisecond, func() { n.Crash(7) })
	sim.At(80*time.Millisecond, func() { n.Restart(7) })
	sim.At(100*time.Millisecond, func() { n.Partition([]int{0, 1, 2}) })
	sim.At(160*time.Millisecond, func() { n.Heal() })
	for round := 0; round < 6; round++ {
		sim.RunFor(35 * time.Millisecond)
		for i := 0; i < 5; i++ {
			bs[3].ep.Send(6, ping{"burst", 2})
		}
		for to := mutex.ID(0); to < 9; to++ {
			bs[4].ep.Send(to, ping{"bcast", 1})
		}
		bs[4].ep.Send(100, ping{"bcast", 1})
	}
	if err := sim.RunCapped(50_000); err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, 0, 10)
	for _, b := range bs {
		logs = append(logs, b.log)
	}
	return append(logs, coord.log), n.Counters()
}

// stormText renders a storm's counters and delivery logs, one line each.
func stormText(logs [][]string, c Counters) string {
	var b strings.Builder
	fmt.Fprintf(&b, "counters %+v\n", c)
	for i, l := range logs {
		fmt.Fprintf(&b, "log %d: %s\n", i, strings.Join(l, " "))
	}
	return b.String()
}

// TestFactoredMatchesDense holds the in-flight FIFO lists, whose watermarks
// live only while their message is in flight, to the process×process
// watermark table simnet used to keep on small grids: testdata/storm-*.golden
// are that table's storms, recorded before it was deleted, and the lists must
// reproduce them event for event — same delivery instants, same loss draws,
// same crash/partition classification, same counters. The zero-latency grid
// is what catches a list pruned one instant too early (at == now == last must
// still bump).
func TestFactoredMatchesDense(t *testing.T) {
	for _, g := range stormGrids {
		t.Run(g.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "storm-"+g.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := stormText(runStorm(t, g.grid)); got != string(want) {
				t.Fatalf("storm diverges from the table's:\nlists:\n%s\ntable:\n%s", got, want)
			}
		})
	}
}

// TestLatencyMatchesGridOneWay is the latency path's oracle from outside
// simnet: without jitter every message must land exactly
// topology.Grid.OneWay(fromNode, toNode) after it was sent and be counted
// intra-cluster exactly when topology.Grid.ClusterOf puts both ends in one
// cluster — on a matrix grid with asymmetric RTTs, on a tree grid, for a
// co-located coordinator process. Every ordered pair sends once, at its own instant, so
// no FIFO bump can move a delivery.
func TestLatencyMatchesGridOneWay(t *testing.T) {
	tree, err := topology.NewTree(topology.TreeSpec{
		Fanouts:  []int{2, 3},
		LeafSize: 2,
		LeafRTT:  time.Millisecond,
		LevelRTT: []time.Duration{40 * time.Millisecond, 7 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		grid *topology.Grid
	}{
		{"grid5000", topology.Grid5000(2)},
		{"tree", tree},
	} {
		t.Run(g.name, func(t *testing.T) {
			sim := des.New()
			n := New(sim, g.grid, Options{})
			nodes := g.grid.NumNodes()
			coord, coordNode := mutex.ID(nodes+5), nodes-1
			hostOf := func(id mutex.ID) int {
				if id == coord {
					return coordNode
				}
				return int(id)
			}
			ids := []mutex.ID{coord}
			for id := 0; id < nodes; id++ {
				ids = append(ids, mutex.ID(id))
			}
			sent := make(map[[2]mutex.ID]des.Time)
			delivered := 0
			for _, id := range ids {
				id := id
				n.RegisterAt(id, hostOf(id), HandlerFunc(func(from mutex.ID, _ mutex.Message) {
					delivered++
					want := sent[[2]mutex.ID{from, id}] + g.grid.OneWay(hostOf(from), hostOf(id))
					if sim.Now() != want {
						t.Errorf("%d->%d landed at %v, want %v", from, id, sim.Now(), want)
					}
				}))
			}
			var at des.Time
			var intra int64
			for _, from := range ids {
				for _, to := range ids {
					from, to := from, to
					at += 3 * time.Microsecond
					if g.grid.ClusterOf(hostOf(from)) == g.grid.ClusterOf(hostOf(to)) {
						intra++
					}
					sim.At(at, func() {
						sent[[2]mutex.ID{from, to}] = sim.Now()
						n.Endpoint(from).Send(to, ping{"p", 1})
					})
				}
			}
			sim.Run()
			if want := len(ids) * len(ids); delivered != want {
				t.Fatalf("delivered %d, want %d", delivered, want)
			}
			if c := n.Counters(); c.IntraMessages != intra || c.Messages != int64(delivered) {
				t.Errorf("intra = %d of %d, want %d of %d", c.IntraMessages, c.Messages, intra, delivered)
			}
		})
	}
}

// TestPartitionRejectedLeavesCut: a Partition call that names a node outside
// the topology panics before it touches the active cut.
func TestPartitionRejectedLeavesCut(t *testing.T) {
	sim, n, _, _ := twoClusterNet(t, Options{})
	n.Register(1, HandlerFunc(func(mutex.ID, mutex.Message) {}))
	n.Register(3, HandlerFunc(func(mutex.ID, mutex.Message) {}))
	// cut sends one message over each probed link and reports which of
	// them the partition dropped.
	cut := func() (dropped [4]bool) {
		for i, l := range [...][2]mutex.ID{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
			was := n.Counters().DroppedPartition
			n.Endpoint(l[0]).Send(l[1], ping{"p", 1})
			sim.Run()
			dropped[i] = n.Counters().DroppedPartition > was
		}
		return dropped
	}
	n.Partition([]int{0, 1})
	before := cut()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Partition with an out-of-range node did not panic")
			}
		}()
		n.Partition([]int{3, 99})
	}()
	after := cut()
	if before != after || before != [...]bool{false, true, true, false} {
		t.Errorf("cut {0,1}: links 0-1, 0-2, 1-3, 2-3 drop %v before the rejected call, %v after", before, after)
	}
}

// TestFactoredSendDeliverAllocs pins the FIFO lists' hot path. A sender's
// in-flight watermark list grows by doubling to the number of links it
// keeps in flight at once — at most one allocation per send while it does —
// and from then on send→deliver allocates nothing: the list is pruned and
// refilled inside its backing array.
func TestFactoredSendDeliverAllocs(t *testing.T) {
	sim := des.New()
	g := topology.Uniform(2, 4, 2*time.Millisecond, 20*time.Millisecond)
	n := New(sim, g, Options{Jitter: 0.2, Seed: 3})
	for id := mutex.ID(0); id < 8; id++ {
		n.Register(id, HandlerFunc(func(mutex.ID, mutex.Message) {}))
	}
	ep := n.Endpoint(0)
	msg := mutex.Message(ping{"p", 16}) // box once, outside the measured loop
	// Warm the queue's backing array and sender 0's list.
	for i := 0; i < 256; i++ {
		ep.Send(mutex.ID(i%4), msg)
	}
	sim.Run()
	const batch = 256
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			ep.Send(mutex.ID(i%4), msg)
		}
		sim.Run()
	}); allocs != 0 {
		t.Errorf("steady-state send→deliver allocates %.2f objects per %d messages, want 0", allocs, batch)
	}
	// Growing: every call takes a sender that has sent nothing yet.
	const fanout = 4
	var fresh []mutex.Env
	for id := mutex.ID(1); id < 8; id++ {
		fresh = append(fresh, n.Endpoint(id))
	}
	if allocs := testing.AllocsPerRun(len(fresh)-1, func() { // one warm-up call plus the runs
		for to := mutex.ID(0); to < fanout; to++ {
			fresh[0].Send(to, msg)
		}
		sim.Run()
		fresh = fresh[1:]
	}); allocs > fanout {
		t.Errorf("a fresh sender's first %d sends allocate %.2f objects, want <= 1 per send", fanout, allocs)
	}
}

// TestProcFitsCacheLine pins the record a send or a delivery reads of a
// process to one cache line.
func TestProcFitsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(proc{}); size > 64 {
		t.Errorf("proc is %d bytes, want <= 64", size)
	}
}

// TestRecordsNeverMove: a record's address is its process's Env and the
// handler of every delivery event addressed to it, so registering ids past
// the topology's nodes while messages are in flight — as BuildMultiLevel
// does for coordinators — must leave every record where it was.
func TestRecordsNeverMove(t *testing.T) {
	sim := des.New()
	g := topology.Uniform(2, 2, 2*time.Millisecond, 20*time.Millisecond)
	n := New(sim, g, Options{})
	got := map[mutex.ID]int{}
	register := func(id mutex.ID, node int) mutex.Env {
		ep := n.Endpoint(id)
		n.RegisterAt(id, node, HandlerFunc(func(mutex.ID, mutex.Message) { got[id]++ }))
		return ep
	}
	eps := map[mutex.ID]mutex.Env{}
	for id := mutex.ID(0); id < 4; id++ {
		eps[id] = register(id, int(id))
	}
	eps[4] = register(4, 0)
	eps[0].Send(1, ping{"p", 1})
	eps[1].Send(4, ping{"p", 1})
	for id := mutex.ID(5); id < 100; id++ {
		register(id, int(id)%4)
	}
	eps[99] = n.Endpoint(99)
	eps[4].Send(99, ping{"p", 1})
	eps[0].Send(1, ping{"p", 1})
	for id, ep := range eps {
		if n.Endpoint(id) != ep {
			t.Errorf("process %d's record moved while messages were in flight", id)
		}
	}
	sim.Run()
	if got[1] != 2 || got[4] != 1 || got[99] != 1 || len(got) != 3 {
		t.Errorf("deliveries %v, want 1:2 4:1 99:1", got)
	}
}

// TestBuildBytesPerNode pins a network's build to O(N): New plus registering
// every node of a Grid'5000-shaped grid allocates at most 100 bytes per node
// — a process's record and its cluster index.
// A process×process FIFO table alone would be 8·N bytes per node: 1,512 at
// 189 nodes, 15,120 at 1,890.
// TotalAlloc is process-wide, so another goroutine's allocations can land
// in a build's window: the least of five fresh builds is the build's own.
func TestBuildBytesPerNode(t *testing.T) {
	h := HandlerFunc(func(mutex.ID, mutex.Message) {})
	for _, per := range []int{21, 210} {
		g := topology.Grid5000(per)
		nodes := g.NumNodes()
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			sim := des.New()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n := New(sim, g, Options{})
			for id := 0; id < nodes; id++ {
				n.Register(mutex.ID(id), h)
			}
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(n)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if perNode := float64(least) / float64(nodes); perNode > 100 {
			t.Errorf("%d nodes: New and Register allocate %.0f bytes per node, want <= 100", nodes, perNode)
		} else {
			t.Logf("%d nodes: %.0f bytes per node", nodes, perNode)
		}
	}
}
