package harness

import (
	"strings"
	"testing"
	"time"

	"gridmutex/internal/core"
)

func recoveryTestScale() Scale {
	s := QuickScale()
	s.AppsPerCluster = 3
	s.CSPerProcess = 5
	s.Repetitions = 2
	s.Rhos = []float64{6}
	return s
}

func TestRunRecoveryTokenHolder(t *testing.T) {
	params := RecoveryParams{Periods: []time.Duration{10 * time.Millisecond}}
	res, err := RunRecovery(params, recoveryTestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points %d, want 1", len(res.Points))
	}
	p := res.Points[0]
	if p.Epochs == 0 {
		t.Error("no regeneration epochs despite an injected crash per repetition")
	}
	if p.RecoveryLatency.N == 0 || p.RecoveryLatency.Mean <= 0 {
		t.Errorf("recovery latency %+v, want positive samples", p.RecoveryLatency)
	}
	if p.DetectorMsgsPerSec <= 0 {
		t.Error("no detector traffic recorded")
	}
	if p.Grants == 0 {
		t.Error("no grants recorded")
	}
	tab := res.Table("test")
	if !strings.Contains(tab, "recover(ms)") || !strings.Contains(tab, "application token holder") {
		t.Errorf("table misses headers:\n%s", tab)
	}
}

func TestRunRecoveryCoordinator(t *testing.T) {
	params := RecoveryParams{
		Periods:          []time.Duration{10 * time.Millisecond},
		CrashCoordinator: true,
	}
	res, err := RunRecovery(params, recoveryTestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.Epochs == 0 {
		t.Error("no regeneration epochs despite a coordinator crash per repetition")
	}
	if !strings.Contains(res.Table("test"), "coordinator of the active cluster") {
		t.Error("table misses the coordinator-target header")
	}
}

// TestRunRecoveryDeterministic: the whole sweep is a pure function of the
// base seed.
func TestRunRecoveryDeterministic(t *testing.T) {
	params := RecoveryParams{Periods: []time.Duration{10 * time.Millisecond}}
	a, err := RunRecovery(params, recoveryTestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRecovery(params, recoveryTestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table("x") != b.Table("x") {
		t.Fatal("same base seed produced different recovery tables")
	}
}

// TestRecoveryDetectorsOnGrid5000: the detector timeouts come from the
// grid's own RTT matrix. With the worst one-way delay taken as the uniform
// grid's 10 ms default, the inter probe timeout (50 ms) sat under the
// orsay→nancy→orsay probe (47.6 + 2.8 ms before jitter): one coordinator
// crash cost 5 probe rounds and froze live, reachable members twice. Off
// the matrix (49.2 ms) it takes one intra and one inter round and nobody
// freezes.
func TestRecoveryDetectorsOnGrid5000(t *testing.T) {
	scale := PaperScale()
	scale.AppsPerCluster = 4
	scale.CSPerProcess = 5
	scale.Repetitions = 1
	params, scale := RecoverySweep(scale)
	params.CrashCoordinator = true
	params.Spec = core.Spec{Intra: "naimi", Inter: "naimi"}
	period, rho := params.Periods[0], scale.Rhos[0] // α/2 and N/2 = 18: the recovery figure's first cell
	out, err := runRecoveryOnce(params, scale, period, rho, deriveSeed(scale.BaseSeed^int64(period), rho, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st := out.Recovery.Stats(); st.Rounds != 2 || st.MinorityFreezes != 0 {
		t.Errorf("%d probe rounds, %d minority freezes (%d suspicions), want 2 and 0", st.Rounds, st.MinorityFreezes, st.Suspicions)
	}
}

// TestRecoveryQueueWork holds what a recovery run costs the event queue, in
// counts: on 6 clusters of 8 applications (72 detector members), 20 ms
// heartbeats and ρ = 24, every member ticks in the same instant and puts
// some 740 jittered heartbeats in flight at once — the shape that cost a
// 4-ary heap 4.4 levels of four compares per event — and the radix heap
// moves each key about five times on its way down (reads 5.11).
func TestRecoveryQueueWork(t *testing.T) {
	s := QuickScale()
	s.Clusters, s.AppsPerCluster = 6, 8
	s.CSPerProcess = 50
	s.Alpha = 10 * time.Millisecond
	s.Rhos = []float64{24}
	s.Repetitions = 1
	res, err := RunRecovery(RecoveryParams{Periods: []time.Duration{20 * time.Millisecond}}, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	q := p.Queue
	t.Logf("%d events, %.2f key moves/event, %+v", p.Events, q.MovesPerEvent(), q)
	if q.Pushes != uint64(p.Events) {
		t.Errorf("%d pushes for %d events", q.Pushes, p.Events)
	}
	if q.HighWater < 700 {
		t.Errorf("high-water %d, want >= 700: the detectors no longer tick together", q.HighWater)
	}
	if m := q.MovesPerEvent(); m > 6 {
		t.Errorf("%.2f key moves per event, want <= 6", m)
	}
}
