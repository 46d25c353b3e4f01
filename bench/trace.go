package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/harness"
	"gridmutex/internal/livenet"
	"gridmutex/internal/mutex"
	"gridmutex/internal/topology"
)

// The traced pass is a separate pass and never the source of an end-to-end
// number. It records spans from the benchmark's own files, around the calls
// into each layer: a timing mutex.Fabric sits between core and the transport
// (simnet, or livenet's UDP network) and wraps every Send and every handler
// Deliver. Spans nest as
//
//	run > build | drive | digest, and inside drive: proc.deliver > simnet.send
//
// and are aggregated in memory per name; every 64th call is kept as a full
// span, and the file is written when the run ends.

const (
	sampleEvery = 64   // every 64th send and deliver is kept as a full span
	maxSpans    = 8192 // sampled spans kept per trace file
	// Span ids of one simulation's phases; sends and delivers take theirs
	// from the process id and a per-process sequence number.
	idRun, idBuild, idDrive, idDigest = 1, 2, 3, 4
)

type span struct {
	Name    string `json:"name"`
	Sim     int    `json:"sim"` // spans of one simulation share this identifier
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type spanAgg struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Aggregate map[string]spanAgg `json:"aggregate"`
	Counts    map[string]float64 `json:"counts"`
	Spans     []span             `json:"spans"`
}

func (tf *traceFile) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), b, 0o644)
}

// procTrace is one process's share of the trace. It is touched only on that
// process's serial context — the simulator's single goroutine, or the
// process's mailbox goroutine on a live transport — so it needs no lock.
type procTrace struct {
	sends, delivers   int64
	sendNs, deliverNs int64
	nestedNs          int64 // send time spent inside this process's deliver spans
	inter             int64 // sends that crossed a cluster boundary (live only)
	deliverID         int64 // id of the deliver span in progress, 0 outside one
	spans             []span
}

type tracer struct {
	epoch     time.Time
	sim       int
	procs     []*procTrace
	pending   func() int               // the simulator's queue depth; nil on live transports
	clusterOf func(id mutex.ID) int    // live only: classifies inter-cluster sends
	delivered int64                    // delivers of the current simulation (single goroutine)
	highwater int                      // deepest queue seen, sampled every 1,024 delivers
	kept      atomic.Int64             // sampled spans kept so far
	total     procTrace                // finished simulations, merged
	phases    map[string]time.Duration // build, drive, digest summed over simulations
	spans     []span
}

func newTracer(procs int) *tracer {
	t := &tracer{epoch: time.Now(), phases: map[string]time.Duration{}}
	t.procs = make([]*procTrace, procs)
	for i := range t.procs {
		t.procs[i] = &procTrace{}
	}
	return t
}

// proc returns the slot of process id, growing the table while a simulation
// is being built (single goroutine); live tracers are sized up front.
func (t *tracer) proc(id mutex.ID) *procTrace {
	for int(id) >= len(t.procs) {
		t.procs = append(t.procs, &procTrace{})
	}
	return t.procs[id]
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// keep reports whether the n-th call is sampled and the file has room.
func (t *tracer) keep(n int64) bool {
	return n%sampleEvery == 0 && t.kept.Add(1) <= maxSpans
}

// phase records one of a simulation's run/build/drive/digest spans in full.
func (t *tracer) phase(name string, id, parent int64, start, end time.Time) {
	t.phases[name] += end.Sub(start)
	t.spans = append(t.spans, span{Name: name, Sim: t.sim, ID: id, Parent: parent, StartNs: t.since(start), EndNs: t.since(end)})
}

// endSim records the finished simulation's phases — built from t0 to t1,
// driven to t2, digested to t3 — merges its per-process traces and readies
// the tracer for the next one.
func (t *tracer) endSim(t0, t1, t2, t3 time.Time) {
	t.phase("run", idRun, 0, t0, t3)
	t.phase("build", idBuild, idRun, t0, t1)
	t.phase("drive", idDrive, idRun, t1, t2)
	t.phase("digest", idDigest, idRun, t2, t3)
	for _, p := range t.procs {
		t.total.sends += p.sends
		t.total.delivers += p.delivers
		t.total.sendNs += p.sendNs
		t.total.deliverNs += p.deliverNs
		t.total.nestedNs += p.nestedNs
		t.total.inter += p.inter
		t.spans = append(t.spans, p.spans...)
	}
	t.procs, t.pending, t.delivered = nil, nil, 0
	t.sim++
}

// wrap interposes the tracer on a fabric.
func (t *tracer) wrap(inner mutex.Fabric) mutex.Fabric { return &tracedFabric{inner: inner, t: t} }

type tracedFabric struct {
	inner mutex.Fabric
	t     *tracer
}

func (f *tracedFabric) Endpoint(id mutex.ID) mutex.Env {
	env := tracedEnv{inner: f.inner.Endpoint(id), self: id, p: f.t.proc(id), t: f.t}
	// core.Process recycles envelope boxes only over a transport that
	// advertises at-most-once delivery; the shim passes messages through
	// untouched, so it forwards the capability.
	if _, once := env.inner.(interface{ DeliversOnce() }); once {
		return &tracedEnvOnce{env}
	}
	return &env
}

func (f *tracedFabric) RegisterAt(id mutex.ID, node int, h mutex.Handler) {
	f.inner.RegisterAt(id, node, &tracedHandler{inner: h, self: id, p: f.t.proc(id), t: f.t})
}

type tracedEnv struct {
	inner mutex.Env
	self  mutex.ID
	p     *procTrace
	t     *tracer
}

type tracedEnvOnce struct{ tracedEnv }

func (*tracedEnvOnce) DeliversOnce() {}

func (e *tracedEnv) Local(f func()) { e.inner.Local(f) }

func (e *tracedEnv) Send(to mutex.ID, m mutex.Message) {
	p := e.p
	//lint:allow dettaint the shim times the call below it; the reading goes to the trace file and never back into the simulation
	start := time.Now()
	e.inner.Send(to, m)
	//lint:allow dettaint the shim times the call below it; the reading goes to the trace file and never back into the simulation
	end := time.Now()
	d := int64(end.Sub(start))
	p.sends++
	p.sendNs += d
	parent := int64(idDrive)
	if p.deliverID != 0 {
		p.nestedNs += d
		parent = p.deliverID
	}
	if c := e.t.clusterOf; c != nil && c(e.self) != c(to) {
		p.inter++
	}
	if e.t.keep(p.sends) {
		p.spans = append(p.spans, span{Name: "simnet.send", Sim: e.t.sim, ID: (int64(e.self)+1)<<32 | 1<<31 | p.sends,
			Parent: parent, StartNs: e.t.since(start), EndNs: e.t.since(end)})
	}
}

type tracedHandler struct {
	inner mutex.Handler
	self  mutex.ID
	p     *procTrace
	t     *tracer
}

func (h *tracedHandler) Deliver(from mutex.ID, m mutex.Message) {
	p, t := h.p, h.t
	p.delivers++
	if t.pending != nil {
		t.delivered++
		if t.delivered%1024 == 0 {
			if depth := t.pending(); depth > t.highwater {
				t.highwater = depth
			}
		}
	}
	id := (int64(h.self)+1)<<32 | p.delivers
	p.deliverID = id
	//lint:allow dettaint the shim times the call below it; the reading goes to the trace file and never back into the simulation
	start := time.Now()
	h.inner.Deliver(from, m)
	//lint:allow dettaint the shim times the call below it; the reading goes to the trace file and never back into the simulation
	end := time.Now()
	p.deliverID = 0
	p.deliverNs += int64(end.Sub(start))
	if t.keep(p.delivers) {
		p.spans = append(p.spans, span{Name: "proc.deliver", Sim: t.sim, ID: id, Parent: idDrive, StartNs: t.since(start), EndNs: t.since(end)})
	}
}

// passTotals is what one pass over a workload's traced cells adds up to.
type passTotals struct {
	build, drive, digest        time.Duration
	sims                        int
	events, msgs, inter, grants int64
	mallocs                     uint64
	gcCycles                    uint32
	gcPause                     time.Duration
}

// memSince records what the Go runtime did since before was read.
func (tot *passTotals) memSince(before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	tot.mallocs = after.Mallocs - before.Mallocs
	tot.gcCycles = after.NumGC - before.NumGC
	tot.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// simCell builds one simulation of the traced pass.
type simCell func(wrap wrapFabric) (*simStack, error)

// runCells builds, drives and digests every cell in turn, with the tracer's
// shim on the fabric when tr is non-nil.
func runCells(cells []simCell, tr *tracer, out *outcome) passTotals {
	var tot passTotals
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, build := range cells {
		var wrap wrapFabric
		if tr != nil {
			wrap = tr.wrap
		}
		t0 := time.Now()
		s, err := build(wrap)
		t1 := time.Now()
		if err != nil {
			out.problemf("traced pass: build: %v", err)
			out.attempted++
			out.failed++
			continue
		}
		if tr != nil {
			tr.pending = s.sim.Pending
		}
		err = s.drive()
		t2 := time.Now()
		s.digest()
		t3 := time.Now()
		grants := int64(len(s.runner.Records()))
		out.attempted += int64(s.runner.ExpectedTotal())
		if err != nil {
			out.problemf("traced pass: %v", err)
			out.failed += int64(s.runner.ExpectedTotal()) - grants
		}
		c := s.net.Counters()
		tot.sims++
		tot.build += t1.Sub(t0)
		tot.drive += t2.Sub(t1)
		tot.digest += t3.Sub(t2)
		tot.events += int64(s.sim.Processed())
		tot.msgs += c.Messages
		tot.inter += c.InterMessages
		tot.grants += grants
		if tr != nil {
			tr.endSim(t0, t1, t2, t3)
		}
	}
	tot.memSince(&before)
	return tot
}

// traceMetrics turns an untraced and a traced pass over the same cells into
// the trace.*, runtime.* and events_per_sec metrics and the trace file.
func traceMetrics(name string, o opts, m metrics, tr *tracer, plain, traced passTotals) *traceFile {
	events := float64(traced.events)
	deliverSelf := tr.total.deliverNs - tr.total.nestedNs
	residual := float64(int64(traced.drive)-tr.total.sendNs-deliverSelf) / events
	perCS := func(n int64) float64 { return float64(n) / float64(traced.grants) }

	m.set(perLayer, "events_per_sec", float64(plain.events)/plain.drive.Seconds())
	m.set(perLayer, "runtime.gc_cycles", float64(plain.gcCycles))
	m.set(perLayer, "runtime.gc_pause_ms", float64(plain.gcPause)/1e6)
	m.set(perLayer, "runtime.allocs_per_event", float64(plain.mallocs)/float64(plain.events))
	m.set(perLayer, "trace.build_s", traced.build.Seconds())
	m.set(perLayer, "trace.drive_s", traced.drive.Seconds())
	m.set(perLayer, "trace.digest_s", traced.digest.Seconds())
	m.set(perLayer, "trace.simnet_send.self_ns", float64(tr.total.sendNs)/float64(tr.total.sends))
	m.set(perLayer, "trace.proc_deliver.self_ns", float64(deliverSelf)/float64(tr.total.delivers))
	m.set(perLayer, "trace.des_residual_ns_per_event", residual)
	m.set(perLayer, "trace.queue_highwater", float64(tr.highwater))
	m.set(perLayer, "trace.overhead_ratio", traced.drive.Seconds()/plain.drive.Seconds())
	m.set(perLayer, "trace.events", events)
	m.set(perLayer, "trace.msgs_per_cs", perCS(traced.msgs))
	m.set(perLayer, "trace.inter_msgs_per_cs", perCS(traced.inter))
	m.set(perLayer, "trace.events_per_cs", perCS(traced.events))

	sort.SliceStable(tr.spans, func(i, j int) bool { return tr.spans[i].StartNs < tr.spans[j].StartNs })
	tf := &traceFile{Workload: name, Seed: o.seed, Spans: tr.spans,
		Aggregate: map[string]spanAgg{
			"simnet.send":  {Count: tr.total.sends, TotalNs: tr.total.sendNs, SelfNs: tr.total.sendNs},
			"proc.deliver": {Count: tr.total.delivers, TotalNs: tr.total.deliverNs, SelfNs: deliverSelf},
		},
		Counts: map[string]float64{
			"sims": float64(traced.sims), "events": events, "msgs": float64(traced.msgs),
			"inter_msgs": float64(traced.inter), "grants": float64(traced.grants),
			"untraced_wall_ns": float64(plain.build + plain.drive + plain.digest),
		},
	}
	for phase, d := range tr.phases {
		self := int64(d)
		switch phase {
		case "run":
			self = 0
		case "drive":
			self -= tr.total.sendNs + deliverSelf
		}
		tf.Aggregate[phase] = spanAgg{Count: int64(traced.sims), TotalNs: int64(d), SelfNs: self}
	}
	return tf
}

// traceSim runs the cells untraced, checks the counts against the harness's
// own run of the same cells, then runs them traced.
func traceSim(name string, o opts, m metrics, cells []simCell, reference func() (events, grants int64, err error)) (*outcome, *traceFile, error) {
	out := &outcome{}
	if err := warmUp(); err != nil {
		return nil, nil, err
	}
	plain := runCells(cells, nil, out)
	events, grants, err := reference()
	switch {
	case err != nil:
		out.problemf("harness reference: %v", err)
	case grants != plain.grants || (events >= 0 && events != plain.events):
		out.problemf("bench assembly diverges from the harness: %d events %d grants, harness %d events %d grants",
			plain.events, plain.grants, events, grants)
	}
	tr := newTracer(0)
	traced := runCells(cells, tr, out)
	if traced.events != plain.events || traced.grants != plain.grants || traced.msgs != plain.msgs {
		out.problemf("traced pass diverges from the untraced one: %d/%d events, %d/%d grants",
			traced.events, plain.events, traced.grants, plain.grants)
	}
	return out, traceMetrics(name, o, m, tr, plain, traced), nil
}

// fig4a is traced on a slice: 4 systems x rho in {45, 180, 1080} x 1
// repetition (the low, middle and high regime; quick scale's equivalents
// under -smoke).
func traceFig4a(o opts, m metrics) (*outcome, *traceFile, error) {
	systems := harness.CompositionSystems()
	scale := fig4aScale(o)
	scale.Repetitions = 1
	scale.Rhos = []float64{scale.Rhos[0], scale.Rhos[3], scale.Rhos[len(scale.Rhos)-1]}
	var cells []simCell
	for _, sys := range systems {
		for _, rho := range scale.Rhos {
			cells = append(cells, func(wrap wrapFabric) (*simStack, error) {
				return buildFigureStack(sys, scale, rho, runSeed(scale.BaseSeed, rho, 0), wrap)
			})
		}
	}
	return traceSim("fig4a-paper", o, m, cells, func() (events, grants int64, err error) {
		res, err := harness.Run(systems, scale, nil)
		if err != nil {
			return 0, 0, err
		}
		for i := range res.Points {
			events += res.Points[i].Events
			grants += res.Points[i].Grants
		}
		return events, grants, nil
	})
}

// gridscale is traced in full on the tree, with one critical section per
// process so that the untraced, reference and traced passes fit in a run.
func traceGridScale(o opts, m metrics) (*outcome, *traceFile, error) {
	n, _ := gridScaleSize(o)
	const cs = 1
	cells := []simCell{func(wrap wrapFabric) (*simStack, error) {
		return buildTreeStack(n, cs, gridScaleAlpha, o.seed, wrap)
	}}
	return traceSim("gridscale-1e5", o, m, cells, func() (int64, int64, error) {
		res, err := harness.RunGridScale([]int{n}, cs, gridScaleAlpha, o.seed, nil)
		if err != nil {
			return 0, 0, err
		}
		return res.Points[0].Events, res.Points[0].Grants, nil
	})
}

// recovery is traced on one run in full: the 20 ms period at the low rho.
func traceRecovery(o opts, m metrics) (*outcome, *traceFile, error) {
	params, scale := recoveryShape(o)
	params.Periods, scale.Rhos = params.Periods[:1], scale.Rhos[:1]
	period, rho := params.Periods[0], scale.Rhos[0]
	cells := []simCell{func(wrap wrapFabric) (*simStack, error) {
		return buildRecoveryStack(scale, period, rho, runSeed(scale.BaseSeed^int64(period), rho, 0), wrap)
	}}
	return traceSim("recovery-6x8", o, m, cells, func() (int64, int64, error) {
		res, err := harness.RunRecovery(params, scale, nil)
		if err != nil {
			return 0, 0, err
		}
		return -1, res.Points[0].Grants, nil // the recovery result carries no event count
	})
}

// liveStack is the live deployment assembled the way gridmutex.New does,
// which leaves room for the shim around the UDP network.
type liveStack struct {
	net   *livenet.UDPNetwork
	hands *handoff
}

func buildLiveStack(seed int64, wrap wrapFabric) (*liveStack, error) {
	topo := topology.Uniform(liveClusters, liveApps+1, 0, 0)
	net := livenet.NewUDP("", 0)
	var fabric mutex.Fabric = net
	if wrap != nil {
		fabric = wrap(net)
	}
	hs := livenet.NewHandles(net)
	d, err := core.BuildComposed(fabric, topo, core.Spec{Intra: "naimi", Inter: "naimi"}, hs.Callbacks)
	if err != nil {
		net.Close()
		return nil, err
	}
	hs.Bind(d.Apps)
	return &liveStack{net: net, hands: newHandoff(seed, func(app int) locker { return hs.Get(d.Apps[app].ID) })}, nil
}

// traceLive runs the hand-off loop on a bench-assembled deployment, untraced
// and then with the shim around livenet's UDP network. An "event" of the live
// workload is one delivered message.
func traceLive(o opts, m metrics) (*outcome, *traceFile, error) {
	warm, unit := liveCounts(o)
	out := &outcome{}
	procs := liveClusters * (liveApps + 1)
	pass := func(tr *tracer) (passTotals, error) {
		var tot passTotals
		var wrap wrapFabric
		if tr != nil {
			wrap = tr.wrap
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		s, err := buildLiveStack(o.seed, wrap)
		if err != nil {
			return tot, err
		}
		t1 := time.Now()
		lat := make([]float64, 0, warm+unit)
		s.hands.run(warm+unit, &lat)
		t2 := time.Now()
		p50, p99 := lockPercentiles(lat[warm:])
		t3 := time.Now()
		s.net.Close() // waits for the mailboxes, so the per-process traces are settled
		s.hands.verify(out)
		if tr == nil {
			// The untraced pass is the measured pass's loop, a unit long.
			m.set(perLayer, "lock_p50_us", p50)
			m.set(perLayer, "lock_p99_us", p99)
		}
		tot = passTotals{build: t1.Sub(t0), drive: t2.Sub(t1), digest: t3.Sub(t2), sims: 1, grants: int64(warm + unit)}
		tot.memSince(&before)
		if tr != nil {
			tr.endSim(t0, t1, t2, t3)
			tot.events, tot.msgs, tot.inter = tr.total.delivers, tr.total.sends, tr.total.inter
		}
		return tot, nil
	}
	plain, err := pass(nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer(procs)
	tr.clusterOf = func(id mutex.ID) int { return int(id) / (liveApps + 1) }
	traced, err := pass(tr)
	if err != nil {
		return nil, nil, err
	}
	// Only the shim counts messages on a live transport; strict hand-off
	// makes them the same on both passes.
	plain.events, plain.msgs, plain.inter = traced.events, traced.msgs, traced.inter
	return out, traceMetrics("live-udp-handoff", o, m, tr, plain, traced), nil
}

// runTraced is a -trace 1 run: the workload's traced pass first, while the
// process is still clean, then the isolation drives of every layer, then the
// ledger that ties the two together.
func runTraced(w *workloadDef, o opts) (*result, error) {
	m := metrics{}
	out, tf, err := w.trace(o, m)
	if err != nil {
		return nil, err
	}
	runLayers(o, m, out)
	ledger(w.name, tf, m)
	if err := tf.write(o.outDir); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			out.problemf("per-layer metric %s was not measured", d.Name)
		}
	}
	return finish(out, m, o), nil
}

// ledger sets the isolation drives against the traced pass: each layer's
// isolated cost per operation times the operations the traced pass counted,
// summed and divided by the untraced wall time of the same cells, is the
// share of that wall time the layers explain; the rest, per event, is the
// residual no isolation drive accounts for.
func ledger(name string, tf *traceFile, m metrics) {
	v := func(metric string) float64 { return m[metric].Value }
	c := tf.Counts
	msgs, events, grants, sims := c["msgs"], c["events"], c["grants"], c["sims"]
	algPerMsg := v("alg.naimi.ns_per_cs.m20") / v("alg.naimi.msgs_per_cs.m20")
	perMsg := v("core.env_send_deliver_ns") + algPerMsg
	var explained float64
	if name == "live-udp-handoff" {
		perMsg += v("wire.encode_ns.small") + v("wire.decode_ns.small") + 1e3*v("livenet.udp_msg_us")
		explained = msgs * perMsg
	} else {
		build := 1e6 * v("core.build_ms.grid5000")
		switch name {
		case "fig4a-paper":
			perMsg += v("simnet.send_deliver_ns.dense")
		case "gridscale-1e5":
			perMsg += v("simnet.send_deliver_ns.matrixfree")
			build = 1e6 * (v("topology.newtree_ms.1e5") + v("simnet.new_ms.tree1e5") + v("core.build_ms.tree1e5"))
		case "recovery-6x8":
			perMsg += v("simnet.send_deliver_ns.kindcounts")
		}
		// The workload drive's own three closure events per critical
		// section are inside workload.ns_per_cs.
		timers := (events - msgs - 3*grants) * v("des.closure_ns.d256")
		perGrant := v("workload.ns_per_cs") + v("check.enter_exit_ns") + v("stats.push_ns.sketch")
		perSim := build + 2*v("rng.new_cached_ns") + v("stats.summarize_ns.sketch")
		explained = msgs*perMsg + timers + grants*perGrant + sims*perSim
	}
	wall := c["untraced_wall_ns"]
	m.set(perLayer, "ledger.explained_share", explained/wall)
	m.set(perLayer, "ledger.residual_ns_per_event", (wall-explained)/events)
}
