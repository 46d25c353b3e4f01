package lint_test

import (
	"strings"
	"testing"

	"gridmutex/internal/lint"
	"gridmutex/internal/lint/linttest"
)

// TestExemptionAudit runs the full suite over a corpus package carrying
// one pragma of every audit category and checks each is classified
// correctly: live pragmas pass, stale ones, unknown analyzer names, and
// missing reasons are each reported.
func TestExemptionAudit(t *testing.T) {
	prog := linttest.Load(t, linttest.TestDataDir(t), "exemptaudit/internal/des")
	result := lint.Run(prog, lint.All())

	var findings, audit []lint.Diagnostic
	for _, d := range result.Diagnostics {
		if d.Analyzer == lint.AuditName {
			audit = append(audit, d)
		} else {
			findings = append(findings, d)
		}
	}

	// The typo'd pragma suppresses nothing, so the go statement under it
	// surfaces as the run's only analyzer finding.
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 (the go statement under the typo'd pragma):\n%v", len(findings), findings)
	}
	if d := findings[0]; d.Analyzer != "dettaint" || !strings.Contains(d.Message, "go statement") {
		t.Errorf("unexpected surviving diagnostic: %s", d)
	}

	wantFragments := []string{
		"stale //lint:allow dettaint",            // Sum's leftover pragma
		"unknown analyzer determinism",           // Typo's misspelling
		"stale //lint:allow determinism",         // ...which therefore also suppresses nothing
		"//lint:allow dettaint without a reason", // Quiet's bare pragma
	}
	if len(audit) != len(wantFragments) {
		t.Fatalf("got %d audit findings, want %d:\n%v", len(audit), len(wantFragments), audit)
	}
	for _, frag := range wantFragments {
		found := false
		for _, d := range audit {
			if strings.Contains(d.Message, frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no audit finding contains %q; got:\n%v", frag, audit)
		}
	}

	// The live, reasoned pragma must be accounted used — it is the one
	// hole the audit should never flag.
	liveSeen := false
	for _, e := range result.Exemptions {
		if e.Used && e.Reason != "" {
			liveSeen = true
		}
	}
	if !liveSeen {
		t.Error("no pragma recorded as used with a reason; Spawn's live pragma lost its accounting")
	}
}
