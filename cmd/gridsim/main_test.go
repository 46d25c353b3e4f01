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
