package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"gridmutex/internal/harness"
	"gridmutex/internal/rng"
	"gridmutex/internal/run"
	"gridmutex/internal/stats"
	"gridmutex/internal/topology"
	"gridmutex/internal/workload"
)

// TestTraceFollowsSelectedSystem: -trace must trace the system the metrics
// describe. With -flat there are no coordinators, so a trace that names an
// intra-inter pair or shows a coordinator transition is a trace of
// something else.
func TestTraceFollowsSelectedSystem(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-flat", "suzuki", "-clusters", "2", "-apps", "2", "-cs", "3", "-trace", "1000"}
	if code := gridsim(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Suzuki (original)") {
		t.Fatalf("metrics are not flat Suzuki's:\n%s", stdout.String())
	}
	trace := stderr.String()
	if !strings.HasPrefix(trace, "--- trace of a 2x2 Suzuki (original) run (last 1000 events) ---\n") {
		t.Errorf("trace header does not name the flat system:\n%s", trace)
	}
	if !strings.Contains(trace, "suzuki.token") {
		t.Errorf("trace shows no Suzuki token transfer:\n%s", trace)
	}
	for _, alien := range []string{" coord ", "naimi."} {
		if strings.Contains(trace, alien) {
			t.Errorf("flat Suzuki trace contains %q:\n%s", alien, trace)
		}
	}
}

// TestZeroRTTIsInstant: -local-rtt 0 -remote-rtt 0 is an instant grid, not
// the 1 ms / 20 ms one. The harness used to swap a zero RTT for those
// defaults, so both invocations printed the same numbers.
func TestZeroRTTIsInstant(t *testing.T) {
	out := func(local, remote string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-clusters", "3", "-apps", "2", "-cs", "3", "-local-rtt", local, "-remote-rtt", remote}
		if code := gridsim(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		return stdout.String()
	}
	if zero, slow := out("0", "0"), out("1", "20"); zero == slow {
		t.Fatalf("zero RTTs ran the 1 ms / 20 ms grid:\n%s", zero)
	}
}

// TestSlowGridsRun: a legal grid far slower than its critical sections
// runs to completion. At 8c8bdaa both rows exited 1 with "property
// violation: liveness: 2 requests waiting but no CS entry between 20s and
// 40s": the run kernel's watchdog waited 2,000 α for a grant whatever the
// grid's latency.
func TestSlowGridsRun(t *testing.T) {
	for _, rtt := range []string{"100000", "1e7"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-cs", "2", "-apps", "2", "-clusters", "2", "-remote-rtt", rtt}
		if code := gridsim(args, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "grants:                 8\n") {
			t.Errorf("-remote-rtt %s: exit %d, stderr %q, stdout:\n%s", rtt, code, stderr.String(), stdout.String())
		}
	}
}

// TestIllegalRunsAreOneLineErrors: a flag combination the run kernel
// rejects (run.Spec.Validate) exits 1 with one "gridsim:" line. At d1e79f2
// the first two died in simnet.New with a goroutine dump, the third ran
// flat Naimi and silently dropped -adaptive, the fourth ran at 1 ms.
func TestIllegalRunsAreOneLineErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-loss", "1.5"}, "loss 1.5 outside [0, 1)"},
		{[]string{"-jitter", "-1"}, "jitter -1"},
		{[]string{"-flat", "naimi", "-adaptive"}, "flat excludes adaptive"},
		{[]string{"-local-rtt", "-5"}, "negative RTT"},
		{[]string{"-cs", "2147483648"}, "CSPerProcess 2147483648 exceeds 2147483647"},
		// At f612bf1 the first three panicked in the drive ("des: scheduling
		// into the past") and the last two ran as if the value were 0.
		{[]string{"-rho", "NaN"}, "rho NaN must be finite"},
		{[]string{"-jitter", "+Inf"}, "jitter +Inf must be finite"},
		{[]string{"-jitter", "1e300"}, "jitter 1e+300 stretches"},
		{[]string{"-jitter", "NaN"}, "jitter NaN must be finite"},
		{[]string{"-loss", "NaN"}, "loss NaN outside [0, 1)"},
		// Converted unchecked, the first read "alpha -2562047h47m16.854775808s
		// must be positive", the second "negative RTT", the last ran with no
		// trace.
		{[]string{"-alpha", "1e300"}, "-alpha 1e+300: not a duration"},
		{[]string{"-local-rtt", "NaN"}, "-local-rtt NaN: not a duration"},
		{[]string{"-remote-rtt", "-Inf"}, "-remote-rtt -Inf: not a duration"},
		{[]string{"-remote-rtt", "1e13"}, "-remote-rtt 1e+13: not a duration"},
		{[]string{"-trace", "-1"}, "-trace -1: want 0 or more events"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-cs", "2", "-apps", "2", "-clusters", "2"}, c.args...)
		code := gridsim(args, &stdout, &stderr)
		msg := stderr.String()
		if code != 1 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with %d bytes on stdout, want exit 1 and none", c.args, code, stdout.Len())
		}
		if !strings.HasPrefix(msg, "gridsim: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, c.want) {
			t.Errorf("%v: stderr %q, want one gridsim: line mentioning %q", c.args, msg, c.want)
		}
		if strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") {
			t.Errorf("%v: stderr carries a crash dump:\n%s", c.args, msg)
		}
	}
}

// TestPercentilesAreExact: gridsim's p50/p95/p99 are exact order statistics
// over the obtaining times of every grant its repetitions made, bit for
// bit. The reference replays each repetition through the run kernel with
// the seed the harness derives for it (rng.Mix of the base seed, ρ's bits
// and the repetition) and keeps every record.
func TestPercentilesAreExact(t *testing.T) {
	const (
		rho  = 24.0
		reps = 4
		cs   = 50
	)
	var stdout, stderr bytes.Buffer
	args := []string{"-inter", "martin", "-clusters", "3", "-apps", "4", "-local-rtt", "1", "-alpha", "5",
		"-cs", "50", "-reps", "4", "-rho", "24", "-json"}
	if code := gridsim(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var p harness.Point
	if err := json.Unmarshal(stdout.Bytes(), &p); err != nil {
		t.Fatal(err)
	}

	sys := harness.Composed("naimi", "martin").RunSystem()
	exact := stats.Accumulator{Retain: true}
	for rep := 0; rep < reps; rep++ {
		r, err := run.Build(run.Spec{
			Grid: topology.Uniform(3, 4+sys.Reserved(), time.Millisecond, 20*time.Millisecond),
			Seed: rng.Mix(1, math.Float64bits(rho), uint64(rep)), Jitter: 0.05,
			Workload: workload.Params{
				Alpha: 5 * time.Millisecond, Rho: rho, Dist: workload.Exponential, CSPerProcess: cs,
			},
			System: sys,
			OnGrant: func(rec workload.Record) {
				exact.Push(float64(rec.Obtaining()) / float64(time.Millisecond))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Drive()
	}
	if exact.N() != p.Obtaining.N {
		t.Fatalf("the replay made %d grants, gridsim reports %d", exact.N(), p.Obtaining.N)
	}
	for _, c := range []struct {
		name string
		got  float64
		q    float64
	}{{"P50", p.Obtaining.P50, 0.50}, {"P95", p.Obtaining.P95, 0.95}, {"P99", p.Obtaining.P99, 0.99}} {
		if want := exact.Percentile(c.q); c.got != want || want == 0 {
			t.Errorf("%s: gridsim reports %v, exact order statistic over the replayed grants %v", c.name, c.got, want)
		}
	}
}
