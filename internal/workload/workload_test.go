package workload

import (
	"math"
	"testing"
	"time"

	"gridmutex/internal/check"
	"gridmutex/internal/core"
	"gridmutex/internal/des"
	"gridmutex/internal/simnet"
	"gridmutex/internal/topology"
)

func TestParamsValidate(t *testing.T) {
	good := Params{Alpha: 10 * time.Millisecond, Rho: 5, CSPerProcess: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Alpha: 0, Rho: 5, CSPerProcess: 10},
		{Alpha: time.Millisecond, Rho: -1, CSPerProcess: 10},
		{Alpha: time.Millisecond, Rho: 5, CSPerProcess: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestBeta(t *testing.T) {
	p := Params{Alpha: 10 * time.Millisecond, Rho: 180}
	if got, want := p.Beta(), 1800*time.Millisecond; got != want {
		t.Fatalf("Beta = %v, want %v", got, want)
	}
}

func TestRecordObtaining(t *testing.T) {
	r := Record{RequestedAt: 100 * time.Millisecond, AcquiredAt: 250 * time.Millisecond}
	if got := r.Obtaining(); got != 150*time.Millisecond {
		t.Fatalf("Obtaining = %v", got)
	}
}

func TestDistributionString(t *testing.T) {
	for d, want := range map[Distribution]string{
		Exponential: "exponential", Constant: "constant", Uniform: "uniform",
		Distribution(9): "Distribution(9)",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
}

// runFlat runs a full workload over a flat central deployment and returns
// the runner.
func runFlat(t *testing.T, params Params, dist Distribution) *Runner {
	t.Helper()
	params.Dist = dist
	sim := des.New()
	grid := topology.Single(4, time.Millisecond)
	net := simnet.New(sim, grid, simnet.Options{})
	mon := check.NewMonitor(sim)
	runner, err := NewRunner(sim, params, mon)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildFlat(net, grid, "central", runner.Callbacks)
	if err != nil {
		t.Fatal(err)
	}
	runner.Bind(d.Apps)
	runner.Start()
	if err := sim.RunCapped(1_000_000); err != nil {
		t.Fatal(err)
	}
	mon.AssertQuiescent()
	if !mon.Ok() {
		t.Fatalf("violations: %v", mon.Violations())
	}
	return runner
}

func TestFullRunAllDistributions(t *testing.T) {
	params := Params{Alpha: 2 * time.Millisecond, Rho: 10, CSPerProcess: 12, Seed: 3}
	for _, dist := range []Distribution{Exponential, Constant, Uniform} {
		t.Run(dist.String(), func(t *testing.T) {
			r := runFlat(t, params, dist)
			if !r.Done() {
				t.Fatalf("%d outstanding", r.Outstanding())
			}
			recs := r.Records()
			if len(recs) != r.ExpectedTotal() {
				t.Fatalf("%d records, want %d", len(recs), r.ExpectedTotal())
			}
			for i, rec := range recs {
				if rec.AcquiredAt < rec.RequestedAt {
					t.Fatalf("record %d acquired before requested: %+v", i, rec)
				}
				if i > 0 && rec.AcquiredAt < recs[i-1].AcquiredAt {
					t.Fatalf("records not in grant order at %d", i)
				}
			}
		})
	}
}

func TestZeroRhoMeansBackToBack(t *testing.T) {
	params := Params{Alpha: 2 * time.Millisecond, Rho: 0, CSPerProcess: 5, Seed: 1}
	r := runFlat(t, params, Exponential)
	if !r.Done() {
		t.Fatal("zero-rho run incomplete")
	}
}

// TestExponentialIdleMean: the generated idle times must average β.
func TestExponentialIdleMean(t *testing.T) {
	sim := des.New()
	params := Params{Alpha: 10 * time.Millisecond, Rho: 20, CSPerProcess: 1, Seed: 42}
	r, err := NewRunner(sim, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += r.idle(0)
	}
	mean := float64(sum) / n
	want := float64(params.Beta())
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("exponential idle mean %.3gms, want ~%.3gms",
			mean/1e6, want/1e6)
	}
}

func TestUniformIdleBounds(t *testing.T) {
	sim := des.New()
	params := Params{Alpha: 10 * time.Millisecond, Rho: 10, Dist: Uniform, CSPerProcess: 1, Seed: 7}
	r, err := NewRunner(sim, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	beta := params.Beta()
	for i := 0; i < 5000; i++ {
		d := r.idle(0)
		if d < 0 || d >= 2*beta {
			t.Fatalf("uniform idle %v outside [0, 2β)", d)
		}
	}
}

func TestConstantIdleExact(t *testing.T) {
	sim := des.New()
	params := Params{Alpha: 10 * time.Millisecond, Rho: 3, Dist: Constant, CSPerProcess: 1, Seed: 7}
	r, err := NewRunner(sim, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if d := r.idle(0); d != params.Beta() {
			t.Fatalf("constant idle %v, want %v", d, params.Beta())
		}
	}
}

func TestRunnerProtocolPanics(t *testing.T) {
	mk := func() *Runner {
		r, err := NewRunner(des.New(), Params{Alpha: time.Millisecond, Rho: 1, CSPerProcess: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	t.Run("start before bind", func(t *testing.T) {
		r := mk()
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r.Start()
	})
	t.Run("double bind", func(t *testing.T) {
		r := mk()
		r.Bind(nil)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r.Bind(nil)
	})
	t.Run("double start", func(t *testing.T) {
		r := mk()
		r.Bind(nil)
		r.Start()
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r.Start()
	})
	t.Run("nil instance", func(t *testing.T) {
		r := mk()
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r.Bind([]core.App{{ID: 1}})
	})
}

func TestNewRunnerRejectsBadParams(t *testing.T) {
	if _, err := NewRunner(des.New(), Params{}, nil); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestPhasedRhoSchedule(t *testing.T) {
	sim := des.New()
	params := Params{
		Alpha: 10 * time.Millisecond,
		Phases: []Phase{
			{Rho: 2, Until: time.Second},
			{Rho: 100, Until: 2 * time.Second},
			{Rho: 10},
		},
		CSPerProcess: 1, Seed: 1,
	}
	r, err := NewRunner(sim, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.currentRho(); got != 2 {
		t.Errorf("rho at t=0: %v, want 2", got)
	}
	sim.RunUntil(1500 * time.Millisecond)
	if got := r.currentRho(); got != 100 {
		t.Errorf("rho at t=1.5s: %v, want 100", got)
	}
	sim.RunUntil(5 * time.Second)
	if got := r.currentRho(); got != 10 {
		t.Errorf("rho at t=5s: %v, want 10 (final phase)", got)
	}
}

func TestPhasedRunCompletes(t *testing.T) {
	params := Params{
		Alpha: 2 * time.Millisecond,
		Phases: []Phase{
			{Rho: 1, Until: 50 * time.Millisecond},
			{Rho: 50},
		},
		CSPerProcess: 10, Seed: 2,
	}
	r := runFlat(t, params, Exponential)
	if !r.Done() {
		t.Fatalf("phased run incomplete: %d outstanding", r.Outstanding())
	}
}

func TestPhaseValidation(t *testing.T) {
	bad := Params{
		Alpha: time.Millisecond, CSPerProcess: 1,
		Phases: []Phase{{Rho: -1, Until: time.Second}, {Rho: 1}},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative phase rho accepted")
	}
	unordered := Params{
		Alpha: time.Millisecond, CSPerProcess: 1,
		Phases: []Phase{{Rho: 1, Until: 2 * time.Second}, {Rho: 1, Until: time.Second}, {Rho: 1}},
	}
	if err := unordered.Validate(); err == nil {
		t.Fatal("unordered phase boundaries accepted")
	}
}

func TestOutstandingAndWaiting(t *testing.T) {
	sim := des.New()
	grid := topology.Single(3, time.Millisecond)
	net := simnet.New(sim, grid, simnet.Options{})
	runner, err := NewRunner(sim, Params{
		Alpha: 2 * time.Millisecond, Rho: 2, CSPerProcess: 4, Seed: 8,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildFlat(net, grid, "central", runner.Callbacks)
	if err != nil {
		t.Fatal(err)
	}
	runner.Bind(d.Apps)
	if got := runner.Outstanding(); got != 12 {
		t.Fatalf("Outstanding before start = %d, want 12", got)
	}
	if runner.Waiting() != 0 {
		t.Fatal("Waiting before start should be 0")
	}
	if runner.Done() {
		t.Fatal("Done before start")
	}
	runner.Start()
	sim.RunFor(20 * time.Millisecond)
	// Mid-run: releases have happened (20ms covers several 2ms critical
	// sections at rho = 2), so the remaining-CS count must have shrunk.
	if got := runner.Outstanding(); got >= 12 || got == 0 {
		t.Fatalf("Outstanding mid-run = %d, want in (0, 12)", got)
	}
	if w := runner.Waiting(); w < 0 || w > 3 {
		t.Fatalf("Waiting = %d out of range", w)
	}
	sim.Run()
	if !runner.Done() || runner.Outstanding() != 0 || runner.Waiting() != 0 {
		t.Fatalf("final state: done=%v outstanding=%d waiting=%d",
			runner.Done(), runner.Outstanding(), runner.Waiting())
	}
}

// TestIdleClampsOverflow: a β (or a draw above it) past 2^63 ns must
// saturate, not wrap into a negative duration scheduled in the past.
func TestIdleClampsOverflow(t *testing.T) {
	sim := des.New()
	for _, dist := range []Distribution{Constant, Uniform, Exponential} {
		r, err := NewRunner(sim, Params{
			Alpha: time.Hour, Rho: 1e18, Dist: dist, CSPerProcess: 1, Seed: 9,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if d := r.idle(0); d < 0 {
				t.Fatalf("%v: idle() = %v, wrapped negative", dist, d)
			}
		}
	}
	if b := (Params{Alpha: time.Hour, Rho: 1e18}).Beta(); b != time.Duration(math.MaxInt64) {
		t.Errorf("Beta() = %v, want saturation", b)
	}
}
