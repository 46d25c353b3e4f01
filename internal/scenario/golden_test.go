package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/verdicts.json from the current code")

const (
	goldenVerdicts      = "../../testdata/golden/verdicts.json"
	goldenTraceCapacity = 256
)

// goldenEntry is one fixture's committed outcome: the verdict exactly as
// Verdict.JSON renders it and the last goldenTraceCapacity trace lines.
type goldenEntry struct {
	Scenario string          `json:"scenario"`
	Verdict  json.RawMessage `json:"verdict"`
	Trace    []string        `json:"trace"`
}

// TestGoldenVerdicts holds every corpus fixture — the passing ones and the
// must-fail ones — to its committed verdict and trace, byte for byte. The
// determinism tests only compare a run with itself; this one compares it
// with the run the previous commit made, which is what "byte-identical
// verdicts per seed" means across a refactor. Regenerate with
// `go test ./internal/scenario -run TestGoldenVerdicts -update` only when
// a change is meant to move verdict bytes.
func TestGoldenVerdicts(t *testing.T) {
	scs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	broken, err := LoadDir(filepath.Join(corpusDir, "broken"))
	if err != nil {
		t.Fatal(err)
	}
	scs = append(scs, broken...)
	results, err := RunAll(scs, 0, Options{TraceCapacity: goldenTraceCapacity})
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]goldenEntry, len(results))
	for i, r := range results {
		fresh[i] = goldenEntry{
			Scenario: r.Verdict.Scenario,
			Verdict:  r.Verdict.JSON(),
			Trace:    strings.Split(strings.TrimSuffix(r.Trace, "\n"), "\n"),
		}
	}
	if *update {
		out, err := json.MarshalIndent(fresh, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenVerdicts), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenVerdicts, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenVerdicts)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(fresh) {
		t.Fatalf("golden has %d fixtures, corpus has %d", len(want), len(fresh))
	}
	for i := range fresh {
		got, want := fresh[i], want[i]
		t.Run(got.Scenario, func(t *testing.T) {
			if got.Scenario != want.Scenario {
				t.Fatalf("fixture %d is %q, golden has %q", i, got.Scenario, want.Scenario)
			}
			var g, w bytes.Buffer
			if err := json.Compact(&g, got.Verdict); err != nil {
				t.Fatal(err)
			}
			if err := json.Compact(&w, want.Verdict); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.Bytes(), w.Bytes()) {
				t.Errorf("verdict moved:\n got: %s\nwant: %s", g.Bytes(), w.Bytes())
			}
			if len(got.Trace) != len(want.Trace) {
				t.Fatalf("trace has %d lines, golden %d", len(got.Trace), len(want.Trace))
			}
			for l := range got.Trace {
				if got.Trace[l] != want.Trace[l] {
					t.Fatalf("trace line %d moved:\n got: %s\nwant: %s", l+1, got.Trace[l], want.Trace[l])
				}
			}
		})
	}
}
