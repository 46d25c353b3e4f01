package main

import (
	"math/rand"
	"runtime"
	"time"

	"gridmutex"
	"gridmutex/internal/algorithms"
	"gridmutex/internal/algorithms/algotest"
	"gridmutex/internal/algorithms/naimitrehel"
	"gridmutex/internal/algorithms/suzukikasami"
	"gridmutex/internal/check"
	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/fleet"
	"gridmutex/internal/harness"
	"gridmutex/internal/livenet"
	"gridmutex/internal/livenet/wire"
	"gridmutex/internal/mutex"
	"gridmutex/internal/rng"
	"gridmutex/internal/simnet"
	"gridmutex/internal/stats"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

// perLayer lists the metrics a -trace 1 run reports, on every workload. The
// isolation drives time calls into one package's exported functions and are
// the same whatever the workload; events_per_sec, runtime.*, trace.* and
// ledger.* come from the workload's traced pass. README.md says which
// end-to-end metric each one should move, and on which workload.
var perLayer = []metricDef{
	{Name: "rng.new_cached_ns", Unit: "ns", Better: "lower"},
	{Name: "rng.new_fresh_ns", Unit: "ns", Better: "lower"},
	{Name: "rng.draw_ns", Unit: "ns", Better: "lower"},
	{Name: "des.deliver_ns.d256", Unit: "ns", Better: "lower"},
	{Name: "des.deliver_ns.d100k", Unit: "ns", Better: "lower"},
	{Name: "des.closure_ns.d256", Unit: "ns", Better: "lower"},
	{Name: "des.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "topology.oneway_ns.grid5000", Unit: "ns", Better: "lower"},
	{Name: "topology.oneway_ns.tree1e5", Unit: "ns", Better: "lower"},
	{Name: "topology.newtree_ms.1e5", Unit: "ms", Better: "lower"},
	{Name: "simnet.send_deliver_ns.dense", Unit: "ns", Better: "lower"},
	{Name: "simnet.send_deliver_ns.factored", Unit: "ns", Better: "lower"},
	{Name: "simnet.send_deliver_ns.matrixfree", Unit: "ns", Better: "lower"},
	{Name: "simnet.send_deliver_ns.kindcounts", Unit: "ns", Better: "lower"},
	{Name: "simnet.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "simnet.new_ms.tree1e5", Unit: "ms", Better: "lower"},
	{Name: "core.env_send_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "core.build_ms.grid5000", Unit: "ms", Better: "lower"},
	{Name: "core.build_ms.tree1e5", Unit: "ms", Better: "lower"},
	{Name: "core.bytes_per_proc.tree1e5", Unit: "B/proc", Better: "lower"},
	{Name: "alg.naimi.ns_per_cs.m20", Unit: "ns", Better: "lower"},
	{Name: "alg.martin.ns_per_cs.m20", Unit: "ns", Better: "lower"},
	{Name: "alg.suzuki.ns_per_cs.m20", Unit: "ns", Better: "lower"},
	{Name: "alg.naimi.msgs_per_cs.m20", Unit: "count", Better: "lower"},
	{Name: "alg.martin.msgs_per_cs.m20", Unit: "count", Better: "lower"},
	{Name: "alg.suzuki.msgs_per_cs.m20", Unit: "count", Better: "lower"},
	{Name: "workload.ns_per_cs", Unit: "ns", Better: "lower"},
	{Name: "check.enter_exit_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.push_ns.sketch", Unit: "ns", Better: "lower"},
	{Name: "stats.merge_ns.sketch", Unit: "ns", Better: "lower"},
	{Name: "stats.summarize_ns.sketch", Unit: "ns", Better: "lower"},
	{Name: "fleet.map_ns_per_job", Unit: "ns", Better: "lower"},
	{Name: "fleet.speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "wire.encode_ns.small", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns.small", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns.suzuki180", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns.suzuki180", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_roundtrip", Unit: "count", Better: "lower"},
	{Name: "livenet.inproc_handoff_us", Unit: "us", Better: "lower"},
	{Name: "livenet.udp_msg_us", Unit: "us", Better: "lower"},
	{Name: "lock_p50_us", Unit: "us", Better: "lower"},
	{Name: "lock_p99_us", Unit: "us", Better: "lower"},
	{Name: "events_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "trace.build_s", Unit: "s", Better: "lower"},
	{Name: "trace.drive_s", Unit: "s", Better: "lower"},
	{Name: "trace.digest_s", Unit: "s", Better: "lower"},
	{Name: "trace.simnet_send.self_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.proc_deliver.self_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.des_residual_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.queue_highwater", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
	{Name: "trace.msgs_per_cs", Unit: "count", Better: "lower"},
	{Name: "trace.inter_msgs_per_cs", Unit: "count", Better: "lower"},
	{Name: "trace.events_per_cs", Unit: "count", Better: "lower"},
	{Name: "ledger.explained_share", Unit: "ratio", Better: "higher"},
	{Name: "ledger.residual_ns_per_event", Unit: "ns", Better: "lower"},
}

// layerReps is how many samples an isolation drive takes; it reports their
// median.
const layerReps = 3

// drives runs the isolation drives of one -trace 1 run.
type drives struct {
	m     metrics
	out   *outcome
	slice time.Duration // how long one sample of one drive runs
	rng   *rand.Rand
	small bool // -smoke: shrink the 10^5-node structures
}

// nsPerOp samples op — which performs n operations per call — layerReps
// times for about d.slice each and returns the median nanoseconds per
// operation.
func (d *drives) nsPerOp(n int, op func()) float64 {
	return d.nsTimed(n, func() time.Duration {
		start := time.Now()
		op()
		return time.Since(start)
	})
}

// nsTimed is nsPerOp for an op that times its n operations itself, leaving
// its preparation out.
func (d *drives) nsTimed(n int, op func() time.Duration) float64 {
	op() // warm: first-touch page faults and lazy initialisation stay out of the samples
	samples := make([]float64, layerReps)
	for i := range samples {
		var busy time.Duration
		calls := 0
		for start := time.Now(); calls == 0 || time.Since(start) < d.slice; calls++ {
			busy += op()
		}
		samples[i] = float64(busy) / float64(calls*n)
	}
	return median(samples)
}

func (d *drives) set(name string, v float64) { d.m.set(perLayer, name, v) }

// allocsPerOp counts heap allocations per operation the way
// testing.AllocsPerRun does: whole allocations, so a steady-state
// allocation-free path reads exactly 0 on every run.
func allocsPerOp(n int, op func()) float64 {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	op()
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(n))
}

type nopHandler struct{}

func (nopHandler) Deliver(mutex.ID, mutex.Message) {}

// stubInstance is an algorithm endpoint that does nothing, so that a drive
// through core or workload measures only that package.
type stubInstance struct{ onRequest func() }

func (s *stubInstance) Request() {
	if s.onRequest != nil {
		s.onRequest()
	}
}
func (*stubInstance) Release()                         {}
func (*stubInstance) Deliver(mutex.ID, mutex.Message)  {}
func (*stubInstance) HasPending() bool                 { return false }
func (*stubInstance) HoldsToken() bool                 { return false }
func (*stubInstance) State() mutex.State               { return mutex.NoReq }
func stubFactory(mutex.Config) (mutex.Instance, error) { return &stubInstance{}, nil }

// loopFabric is a loop-back mutex.Fabric: Send delivers synchronously to the
// registered handler, Local callbacks are dropped. Its endpoints advertise
// at-most-once delivery, so core takes its recycled-envelope path as it does
// over simnet.
type loopFabric struct{ handlers []mutex.Handler }

type loopEnv struct{ f *loopFabric }

func (f *loopFabric) Endpoint(mutex.ID) mutex.Env { return loopEnv{f} }
func (f *loopFabric) RegisterAt(id mutex.ID, _ int, h mutex.Handler) {
	for int(id) >= len(f.handlers) {
		f.handlers = append(f.handlers, nil)
	}
	f.handlers[id] = h
}
func (e loopEnv) Send(to mutex.ID, m mutex.Message) { e.f.handlers[to].Deliver(0, m) }
func (loopEnv) Local(func())                        {}
func (loopEnv) DeliversOnce()                       {}

const batch = 1024 // operations per call of a nanosecond-scale drive

// runLayers runs every isolation drive. The order puts rng's fresh seeding
// last: it fills the package's seed cache with throw-away seeds.
func runLayers(o opts, m metrics, out *outcome) {
	d := &drives{m: m, out: out, rng: rand.New(rand.NewSource(o.seed)), small: o.smoke,
		slice: time.Duration(o.seconds * float64(6*time.Millisecond))}
	treeN, factoredN := 100_000, 5_000
	if d.small {
		treeN, factoredN = 2_000, 1_000
	}
	treeSpec, treeGroups, _ := treeRecipe(treeN)
	tree, err := topology.NewTree(treeSpec)
	if err != nil {
		out.problemf("isolation drives: %v", err)
		return
	}
	d.des()
	d.topology(tree, treeSpec)
	d.simnet(tree, factoredN)
	d.core(tree, treeGroups)
	d.algorithms()
	d.workloadAndCheck()
	d.stats()
	d.fleet()
	d.wire()
	d.livenet(o)
	d.rngs()
}

func (d *drives) rngs() {
	r := rng.New(1)
	var sink float64
	d.set("rng.draw_ns", d.nsPerOp(batch, func() {
		for i := 0; i < batch; i++ {
			sink += r.Float64()
		}
	}))
	d.set("rng.new_cached_ns", d.nsPerOp(batch, func() {
		for i := 0; i < batch; i++ {
			sink += float64(rng.New(12345).Int63() & 1)
		}
	}))
	seed := int64(1) << 40
	d.set("rng.new_fresh_ns", d.nsPerOp(batch, func() {
		for i := 0; i < batch; i++ {
			seed++
			sink += float64(rng.New(seed).Int63() & 1)
		}
	}))
	runtime.KeepAlive(sink)
}

// delays is a seeded table of future offsets, a power of two long so that a
// drive indexes it with a mask and draws nothing inside the timed loop.
func (d *drives) delays(max time.Duration) []des.Time {
	t := make([]des.Time, 4096)
	for i := range t {
		t[i] = des.Time(1 + d.rng.Int63n(int64(max)))
	}
	return t
}

func (d *drives) des() {
	var msg mutex.Message = naimitrehel.Token{}
	delays := d.delays(time.Second)
	// hold keeps the queue at a fixed depth: one push and one pop per
	// operation.
	hold := func(depth int, push func(sim *des.Simulator, at des.Time)) func() {
		sim := des.New()
		for i := 0; i < depth; i++ {
			push(sim, delays[i&4095])
		}
		k := 0
		return func() {
			for i := 0; i < batch; i++ {
				push(sim, sim.Now()+delays[k&4095])
				k++
				sim.Step()
			}
		}
	}
	deliver := func(sim *des.Simulator, at des.Time) { sim.AtDeliver(at, nopHandler{}, 0, msg) }
	nop := func() {}
	d.set("des.deliver_ns.d256", d.nsPerOp(batch, hold(256, deliver)))
	deep := 100_000
	if d.small {
		deep = 10_000
	}
	d.set("des.deliver_ns.d100k", d.nsPerOp(batch, hold(deep, deliver)))
	d.set("des.closure_ns.d256", d.nsPerOp(batch, hold(256, func(sim *des.Simulator, at des.Time) { sim.At(at, nop) })))
	d.set("des.allocs_per_event", allocsPerOp(batch, hold(256, deliver)))
}

// pairs is a seeded table of node pairs.
func (d *drives) pairs(nodes int) [][2]int {
	p := make([][2]int, 4096)
	for i := range p {
		p[i] = [2]int{d.rng.Intn(nodes), d.rng.Intn(nodes)}
	}
	return p
}

func (d *drives) topology(tree *topology.Grid, spec topology.TreeSpec) {
	var sink time.Duration
	oneWay := func(g *topology.Grid) func() {
		pairs := d.pairs(g.NumNodes())
		return func() {
			for i := 0; i < batch; i++ {
				p := pairs[i&4095]
				sink += g.OneWay(p[0], p[1])
			}
		}
	}
	d.set("topology.oneway_ns.grid5000", d.nsPerOp(batch, oneWay(topology.Grid5000(21))))
	d.set("topology.oneway_ns.tree1e5", d.nsPerOp(batch, oneWay(tree)))
	d.set("topology.newtree_ms.1e5", d.nsPerOp(1, func() {
		if _, err := topology.NewTree(spec); err != nil {
			d.out.problemf("topology.NewTree: %v", err)
		}
	})/1e6)
	runtime.KeepAlive(sink)
}

// sendLoop builds a network of no-op handlers on g and returns a drive that
// sends between seeded peers: draining every 256 messages, or — with hold —
// keeping hold messages in flight with one send and one delivery per
// operation.
func (d *drives) sendLoop(g *topology.Grid, opts simnet.Options, hold int) func() {
	sim := des.New()
	opts.Jitter, opts.Seed = 0.05, 1
	net := simnet.New(sim, g, opts)
	envs := make([]mutex.Env, g.NumNodes())
	for i := range envs {
		net.Register(mutex.ID(i), nopHandler{})
		envs[i] = net.Endpoint(mutex.ID(i))
	}
	pairs := d.pairs(g.NumNodes())
	var msg mutex.Message = naimitrehel.Request{Origin: 1}
	k := 0
	send := func() {
		p := pairs[k&4095]
		k++
		if p[0] == p[1] {
			p[1] = (p[1] + 1) % len(envs)
		}
		envs[p[0]].Send(mutex.ID(p[1]), msg)
	}
	if hold > 0 {
		for i := 0; i < hold; i++ {
			send()
		}
		return func() {
			for i := 0; i < batch; i++ {
				send()
				sim.Step()
			}
		}
	}
	return func() {
		for i := 0; i < batch; i += 256 {
			for j := 0; j < 256; j++ {
				send()
			}
			sim.Run()
		}
	}
}

func (d *drives) simnet(tree *topology.Grid, factoredN int) {
	paper := topology.Grid5000(21)
	d.set("simnet.send_deliver_ns.dense", d.nsPerOp(batch, d.sendLoop(paper, simnet.Options{}, 0)))
	d.set("simnet.send_deliver_ns.kindcounts", d.nsPerOp(batch, d.sendLoop(paper, simnet.Options{KindCounts: true}, 0)))
	d.set("simnet.allocs_per_msg", allocsPerOp(batch, d.sendLoop(paper, simnet.Options{}, 0)))
	spec, _, _ := treeRecipe(factoredN)
	if mid, err := topology.NewTree(spec); err != nil {
		d.out.problemf("topology.NewTree: %v", err)
	} else {
		d.set("simnet.send_deliver_ns.factored", d.nsPerOp(batch, d.sendLoop(mid, simnet.Options{}, 0)))
	}
	d.set("simnet.send_deliver_ns.matrixfree", d.nsPerOp(batch, d.sendLoop(tree, simnet.Options{}, tree.NumNodes())))
	d.set("simnet.new_ms.tree1e5", d.nsPerOp(1, func() {
		simnet.New(des.New(), tree, simnet.Options{Jitter: 0.05, Seed: 1})
	})/1e6)
}

func (d *drives) core(tree *topology.Grid, groups []int) {
	loop := &loopFabric{}
	var procs [2]*core.Process
	for i := range procs {
		procs[i] = core.NewProcess(mutex.ID(i), loop.Endpoint(mutex.ID(i)))
		procs[i].Attach(0, &stubInstance{})
		loop.RegisterAt(mutex.ID(i), i, procs[i])
	}
	// The two processes send to each other in turn: a recycled envelope box
	// returns to the receiver's free list, so one-way traffic would allocate
	// on every send.
	envs := [2]mutex.Env{procs[0].Env(0), procs[1].Env(0)}
	var msg mutex.Message = naimitrehel.Request{Origin: 1}
	d.set("core.env_send_deliver_ns", d.nsPerOp(batch, func() {
		for i := 0; i < batch; i++ {
			envs[i&1].Send(mutex.ID(1-i&1), msg)
		}
	}))
	build := func(g *topology.Grid, levels int, groups []int) func() *core.Deployment {
		factories := make([]mutex.Factory, levels)
		for i := range factories {
			factories[i] = stubFactory
		}
		return func() *core.Deployment {
			dep, err := core.BuildMultiLevelWith(&loopFabric{}, g, factories, groups, nil)
			if err != nil {
				d.out.problemf("core.BuildMultiLevelWith: %v", err)
			}
			return dep
		}
	}
	paper := build(topology.Grid5000(21), 2, nil)
	d.set("core.build_ms.grid5000", d.nsPerOp(1, func() { paper() })/1e6)
	big := build(tree, len(groups)+2, groups)
	d.set("core.build_ms.tree1e5", d.nsPerOp(1, func() { big() })/1e6)
	before := heapLive()
	dep := big()
	after := heapLive()
	if dep != nil && after > before {
		d.set("core.bytes_per_proc.tree1e5", float64(after-before)/float64(len(dep.Procs)))
	}
	runtime.KeepAlive(dep)
}

// algorithms drives each of the paper's three algorithms alone: 20 members
// (one paper cluster) in a hand-stepped algotest.World, seeded requesters
// taking turns, every request run to quiescence.
func (d *drives) algorithms() {
	const members, rounds = 20, 200
	ids := make([]mutex.ID, members)
	for i := range ids {
		ids[i] = mutex.ID(i)
	}
	order := make([]int, rounds)
	for i := range order {
		order[i] = d.rng.Intn(members)
	}
	for _, alg := range []string{"naimi", "martin", "suzuki"} {
		factory, err := algorithms.Factory(alg)
		if err != nil {
			d.out.problemf("algorithms.Factory: %v", err)
			continue
		}
		var msgs int
		round := func() {
			w := algotest.NewWorld()
			granted := -1
			insts, err := w.Build(factory, ids, 0, func(self mutex.ID) mutex.Callbacks {
				return mutex.Callbacks{OnAcquire: func() { granted = int(self) }}
			})
			if err != nil {
				d.out.problemf("alg %s: %v", alg, err)
				return
			}
			for _, who := range order {
				insts[who].Request()
				w.Settle()
				if err := w.Drain(1 << 20); err != nil || granted != who {
					d.out.problemf("alg %s: request of member %d not granted (%v)", alg, who, err)
					return
				}
				insts[who].Release()
				w.Settle()
				if err := w.Drain(1 << 20); err != nil {
					d.out.problemf("alg %s: %v", alg, err)
					return
				}
				granted = -1
			}
			msgs = len(w.Log())
		}
		d.set("alg."+alg+".ns_per_cs.m20", d.nsPerOp(rounds, round))
		d.set("alg."+alg+".msgs_per_cs.m20", float64(msgs)/rounds)
	}
}

func (d *drives) workloadAndCheck() {
	// One application whose stub instance grants on Request through the
	// callbacks: three closure events per critical section and no algorithm.
	const cs = 4096
	d.set("workload.ns_per_cs", d.nsPerOp(cs, func() {
		sim := des.New()
		runner, err := workload.NewRunner(sim, workload.Params{
			Alpha: time.Millisecond, Rho: 1, Dist: workload.Exponential, CSPerProcess: cs, Seed: 1,
		}, nil)
		if err != nil {
			d.out.problemf("workload.NewRunner: %v", err)
			return
		}
		inst := &stubInstance{}
		grant := runner.Callbacks(0).OnAcquire
		inst.onRequest = func() { sim.After(0, grant) }
		runner.Bind([]core.App{{ID: 0, Instance: inst}})
		runner.Start()
		sim.Run()
		if !runner.Done() {
			d.out.problemf("workload drive: %d requests outstanding", runner.Outstanding())
		}
	}))
	mon := check.NewMonitor(des.New())
	d.set("check.enter_exit_ns", d.nsPerOp(batch, func() {
		for i := 0; i < batch; i++ {
			mon.Enter(1)
			mon.Exit(1)
		}
	}))
	if !mon.Ok() {
		d.out.problemf("check drive: %s", mon.Violations()[0])
	}
}

func (d *drives) stats() {
	// 18,000 samples: the grants of one fig4a-paper run.
	const samples, parts = 18_000, 10
	xs := make([]float64, samples)
	for i := range xs {
		xs[i] = d.rng.ExpFloat64() * 50
	}
	fill := func() *stats.Accumulator {
		a := &stats.Accumulator{Sketch: true}
		for _, x := range xs {
			a.Push(x)
		}
		return a
	}
	d.set("stats.push_ns.sketch", d.nsPerOp(samples, func() { fill() }))
	var partials [parts]*stats.Accumulator
	for i := range partials {
		partials[i] = fill()
	}
	merged := func() *stats.Accumulator {
		a := &stats.Accumulator{Sketch: true}
		for _, p := range partials {
			a.Merge(p)
		}
		return a
	}
	d.set("stats.merge_ns.sketch", d.nsPerOp(parts, func() { merged() }))
	var sink stats.Summary
	d.set("stats.summarize_ns.sketch", d.nsTimed(1, func() time.Duration {
		a := merged()
		start := time.Now()
		sink = a.Summarize()
		return time.Since(start)
	}))
	runtime.KeepAlive(sink)
}

func (d *drives) fleet() {
	const jobs = 10_000
	d.set("fleet.map_ns_per_job", d.nsPerOp(jobs, func() {
		if _, err := fleet.Map(jobs, 2, func(i int) (struct{}, error) { return struct{}{}, nil }); err != nil {
			d.out.problemf("fleet.Map: %v", err)
		}
	}))
	// The rho = 180 column of fig4a at two workers against one.
	scale := harness.PaperScale()
	if d.small {
		scale = harness.QuickScale()
	}
	scale.Rhos, scale.Repetitions = scale.Rhos[3:4], 1
	column := func(workers int) float64 {
		scale.Workers = workers
		return d.nsPerOp(1, func() {
			if _, err := harness.Run(harness.CompositionSystems(), scale, nil); err != nil {
				d.out.problemf("fleet drive: %v", err)
			}
		})
	}
	d.set("fleet.speedup_w2", column(1)/column(2))
}

func (d *drives) wire() {
	var small mutex.Message = core.Envelope{Level: 0, Inner: naimitrehel.Request{Origin: 7}}
	token := suzukikasami.Token{LN: make([]int64, 180), Q: []mutex.ID{3, 5, 8}}
	for i := range token.LN {
		token.LN[i] = d.rng.Int63n(100)
	}
	var big mutex.Message = core.Envelope{Level: 1, Inner: token}
	for _, c := range []struct {
		name string
		msg  mutex.Message
	}{{"small", small}, {"suzuki180", big}} {
		buf := make([]byte, 0, 4096)
		enc, err := wire.Encode(buf, c.msg)
		if err != nil {
			d.out.problemf("wire.Encode %s: %v", c.name, err)
			continue
		}
		if _, err := wire.DecodeFull(enc); err != nil {
			d.out.problemf("wire.DecodeFull %s: %v", c.name, err)
			continue
		}
		d.set("wire.encode_ns."+c.name, d.nsPerOp(batch, func() {
			for i := 0; i < batch; i++ {
				wire.Encode(buf, c.msg)
			}
		}))
		d.set("wire.decode_ns."+c.name, d.nsPerOp(batch, func() {
			for i := 0; i < batch; i++ {
				wire.DecodeFull(enc)
			}
		}))
	}
	buf := make([]byte, 0, 64)
	d.set("wire.allocs_per_roundtrip", allocsPerOp(batch, func() {
		for i := 0; i < batch; i++ {
			enc, _ := wire.Encode(buf, small)
			wire.DecodeFull(enc)
		}
	}))
}

// pingPong bounces one message between two handlers on a livenet transport.
type pingPong struct {
	env  mutex.Env
	peer mutex.ID
	left int
	done chan struct{}
}

func (p *pingPong) Deliver(_ mutex.ID, m mutex.Message) {
	if p.left--; p.left <= 0 {
		if p.left == 0 {
			p.done <- struct{}{}
		}
		return
	}
	p.env.Send(p.peer, m)
}

func (d *drives) livenet(o opts) {
	warm, unit := liveCounts(o)
	// The hand-off loop of live-udp-handoff with goroutine mailboxes in
	// place of sockets.
	g, err := gridmutex.New(gridmutex.Config{Clusters: liveClusters, AppsPerCluster: liveApps, Transport: gridmutex.InProcess})
	if err != nil {
		d.out.problemf("gridmutex.New in-process: %v", err)
		return
	}
	h := newHandoff(o.seed, func(app int) locker { return g.Mutex(app) })
	h.run(warm, nil)
	d.set("livenet.inproc_handoff_us", d.nsPerOp(batch, func() { h.run(batch, nil) })/1e3)
	h.verify(d.out)
	g.Close()

	// Lock latency over UDP: half a unit of hand-offs, every Lock timed. The
	// live workload has taken it from its own untraced pass already.
	if _, ok := d.m["lock_p50_us"]; !ok {
		s, err := buildLiveStack(o.seed, nil)
		if err != nil {
			d.out.problemf("live stack: %v", err)
			return
		}
		s.hands.run(warm, nil)
		lat := make([]float64, 0, unit/2)
		s.hands.run(unit/2, &lat)
		s.hands.verify(d.out)
		s.net.Close()
		p50, p99 := lockPercentiles(lat)
		d.set("lock_p50_us", p50)
		d.set("lock_p99_us", p99)
	}

	// One small message bounced between two sockets; a bounce is two
	// messages.
	net := livenet.NewUDP("", 0)
	defer net.Close()
	a := &pingPong{env: net.Endpoint(0), peer: 1, done: make(chan struct{}, 1)}
	b := &pingPong{env: net.Endpoint(1), peer: 0, done: make(chan struct{}, 1)}
	net.RegisterAt(0, 0, a)
	net.RegisterAt(1, 1, b)
	var msg mutex.Message = core.Envelope{Level: 0, Inner: naimitrehel.Request{Origin: 7}}
	const bounces = 256
	d.set("livenet.udp_msg_us", d.nsPerOp(2*bounces, func() {
		// a counts its own receipts: it sends, then receives bounces times.
		net.Post(0, func() { a.left = bounces })
		net.Post(1, func() { b.left = 1 << 30 })
		net.Post(0, func() { a.env.Send(1, msg) })
		<-a.done
	})/1e3)
}
