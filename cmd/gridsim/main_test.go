package main

import (
	"bytes"
	"strings"
	"testing"
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
