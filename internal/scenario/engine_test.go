package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const corpusDir = "../../testdata/scenarios"

// TestCorpusGreen sweeps the committed corpus in parallel — every
// scenario's verdict must pass. This is the data-driven replacement for
// the hand-coded acceptance tests it ported.
func TestCorpusGreen(t *testing.T) {
	scs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) < 12 {
		t.Fatalf("corpus shrank to %d scenarios; want at least 12", len(scs))
	}
	results, err := RunAll(scs, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Verdict.Pass {
			t.Errorf("scenario %s failed:\n%s", r.Verdict.Scenario, r.Verdict.String())
		}
	}
}

// TestBrokenFixturesFail: the committed negative fixtures must produce
// failing verdicts that name the offending invariant — and only it.
func TestBrokenFixturesFail(t *testing.T) {
	wants := map[string]string{
		"broken-envelope-violated":       "envelope:grants",
		"broken-standby-never-activates": "standbys",
		"broken-minority-regenerates":    "envelope:regenerations",
		"broken-three-tier-no-inter":     "envelope:inter_msgs_per_cs",
	}
	scs, err := LoadDir(filepath.Join(corpusDir, "broken"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(wants) {
		t.Fatalf("broken corpus has %d fixtures, want %d", len(scs), len(wants))
	}
	for _, sc := range scs {
		res, err := Run(sc, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		v := res.Verdict
		want, ok := wants[v.Scenario]
		if !ok {
			t.Fatalf("unexpected fixture %q", v.Scenario)
		}
		if v.Pass {
			t.Fatalf("%s passed; it is supposed to fail", v.Scenario)
		}
		var failing []Check
		for _, c := range v.Checks {
			if !c.Pass {
				failing = append(failing, c)
			}
		}
		if len(failing) != 1 || failing[0].Name != want {
			t.Fatalf("%s: failing checks %v, want exactly [%s]", v.Scenario, checkNames(failing), want)
		}
		if failing[0].Detail == "" {
			t.Fatalf("%s: failing check has no detail", v.Scenario)
		}
	}
}

func checkNames(cs []Check) []string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// TestVerdictDeterminism: the same scenario and seed must yield
// byte-identical verdict JSON and a byte-identical event trace — the
// property that makes corpus verdicts diffable across CI runs.
func TestVerdictDeterminism(t *testing.T) {
	for _, name := range []string{"app-holder-crash.yaml", "lossy-composition-20.yaml", "restart-rejoin.yaml", "partition-heal.yaml", "three-tier.yaml"} {
		t.Run(name, func(t *testing.T) {
			sc, err := LoadFile(filepath.Join(corpusDir, name))
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{TraceCapacity: 1 << 16}
			a, err := Run(sc, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(sc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Verdict.JSON(), b.Verdict.JSON()) {
				t.Error("verdict JSON differs between identical runs")
			}
			if a.Trace != b.Trace {
				t.Error("event trace differs between identical runs")
			}
			if len(a.Trace) == 0 {
				t.Error("trace capacity set but no events captured")
			}
		})
	}
}

// TestParallelCorpusDeterminism: verdict bytes must not depend on worker
// count or scheduling — serial and parallel sweeps agree byte for byte.
func TestParallelCorpusDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus sweep")
	}
	scs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunAll(scs, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAll(scs, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("verdict counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !bytes.Equal(serial[i].Verdict.JSON(), parallel[i].Verdict.JSON()) {
			t.Errorf("scenario %s: serial and parallel verdicts differ", serial[i].Verdict.Scenario)
		}
	}
}

func TestSeedChangesOutcomeBytes(t *testing.T) {
	sc, err := LoadFile(filepath.Join(corpusDir, "baseline-naimi-naimi.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed++
	b, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Verdict.Pass || !b.Verdict.Pass {
		t.Fatal("baseline must pass under either seed")
	}
	if bytes.Equal(a.Verdict.JSON(), b.Verdict.JSON()) {
		t.Error("different seeds produced identical verdict bytes; jitter not seeded?")
	}
}

func TestLoadDirRejectsDuplicates(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"a.yaml", "b.yaml"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(minimal), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "already used by") {
		t.Fatalf("duplicate names not rejected: %v", err)
	}
}

func TestLoadDirEmpty(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no *.yaml scenarios") {
		t.Fatalf("empty dir not rejected: %v", err)
	}
}
