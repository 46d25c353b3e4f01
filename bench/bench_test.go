package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark: runSets re-executes
// os.Executable() once per run, and under the test that is this binary.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_CHILD") != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at -smoke size, end to end and traced, and
// checks that the result carries exactly the metrics the tables declare,
// each a finite number, with nothing failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			t.Run(w.name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				out := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.name, "-smoke", "-seconds", "0.05",
					"-trace", strconv.Itoa(trace), "-out", out}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
				}
				lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
				var res result
				dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s is %v", d.Name, m.Value)
					case trace == 0 && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, must be positive", d.Name, m.Value)
					}
				}
				if trace == 1 {
					if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in the code and to
// the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", file.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	checkMetrics := func(kind string, rows []row, defs []metricDef, bounded bool) {
		if len(rows) != len(defs) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", kind, len(rows), len(defs))
		}
		for i, r := range rows {
			checkName(r.Name)
			d := defs[i]
			if r.Name != d.Name || r.Unit != d.Unit || r.Better != d.Better || !unit.MatchString(r.Unit) {
				t.Errorf("%s %d: file has %+v, code has %+v", kind, i, r, d)
			}
			if bounded != (r.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, r.Name, r.Bound != nil)
			} else if bounded && (*r.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v in the file, %v in the code, must be in (0, 0.25]", kind, r.Name, *r.Bound, d.Bound)
			}
		}
	}
	checkMetrics("end_to_end", file.EndToEnd, endToEnd, true)
	checkMetrics("per_layer", file.PerLayer, perLayer, false)
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
			return
		}
	}
	t.Error("end_to_end has no setup_s")
}

// TestQuartiles pins the spread computation to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// TestRunSets drives the mode without -workload at -smoke size: one child
// process per run, each one's result parsed and every metric printed. Two
// workloads, one simulated and the live one, cover the re-execution; TestSmoke
// has run all four.
func TestRunSets(t *testing.T) {
	t.Setenv("BENCH_TEST_CHILD", "1")
	defer func(all []workloadDef) { workloads = all }(workloads)
	workloads = workloads[2:]
	var log bytes.Buffer
	o := opts{seed: 1, seconds: 0.05, smoke: true, outDir: t.TempDir(), log: &log}
	if err := runSets(o, 1, false); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("the traced child of %s left no trace file: %v", w.name, err)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !strings.Contains(log.String(), d.Name+" ") {
				t.Errorf("metric %s is not in the report", d.Name)
			}
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-update"}, io.Discard, &stderr); code != 2 {
		t.Errorf("-update without -workload exits %d, want 2: %s", code, stderr.String())
	}
}

// TestReport pins what -selfcheck refuses: a spread or a shift of the median
// beyond the bound, setup_s's spread excepted, and an exact count that moved.
func TestReport(t *testing.T) {
	steady := []float64{100, 100, 101, 101, 102, 102, 103, 103, 104, 104}
	build := func(edit func(*set)) *set {
		s := &set{endToEnd: map[string]map[string][]float64{}, perLayer: map[string]metrics{}}
		for _, w := range workloads {
			s.endToEnd[w.name] = map[string][]float64{}
			for _, d := range endToEnd {
				s.endToEnd[w.name][d.Name] = steady
			}
			s.perLayer[w.name] = metrics{}
			for _, name := range exactCounts {
				s.perLayer[w.name][name] = metric{Value: 7, Unit: "count"}
			}
		}
		if edit != nil {
			edit(s)
		}
		return s
	}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 70, 80, 90, 100, 104, 110, 120, 130, 140}
	o := opts{seed: 1, log: io.Discard}
	for _, c := range []struct {
		name   string
		second *set
		want   []string // a substring of each violation, in order
	}{
		{"two like sets", build(nil), nil},
		{"slower within the bound", build(func(s *set) { s.endToEnd["fig4a-paper"]["wall_s"] = scaled(1.2) }), nil},
		{"slower beyond the bound", build(func(s *set) { s.endToEnd["fig4a-paper"]["wall_s"] = scaled(1.3) }),
			[]string{"fig4a-paper wall_s: second median worse"}},
		{"a higher-is-better metric rising", build(func(s *set) { s.endToEnd["recovery-6x8"]["cs_per_sec"] = scaled(1.5) }), nil},
		{"a higher-is-better metric falling", build(func(s *set) { s.endToEnd["recovery-6x8"]["cs_per_sec"] = scaled(0.7) }),
			[]string{"recovery-6x8 cs_per_sec: second median worse"}},
		{"memory held tighter than time", build(func(s *set) { s.endToEnd["gridscale-1e5"]["bytes_per_proc"] = scaled(1.07) }),
			[]string{"gridscale-1e5 bytes_per_proc: second median worse"}},
		{"a wide spread", build(func(s *set) { s.endToEnd["live-udp-handoff"]["wall_s"] = wide }),
			[]string{"live-udp-handoff wall_s: spread"}},
		{"setup_s may spread", build(func(s *set) { s.endToEnd["live-udp-handoff"]["setup_s"] = wide }), nil},
		{"an exact count that moved", build(func(s *set) { s.perLayer["fig4a-paper"]["trace.events"] = metric{Value: 8, Unit: "count"} }),
			[]string{"fig4a-paper trace.events: exact count"}},
		{"live message counts are not exact", build(func(s *set) { s.perLayer["live-udp-handoff"]["trace.events"] = metric{Value: 8, Unit: "count"} }), nil},
	} {
		got := report(o, build(nil), c.second, true)
		if len(got) != len(c.want) {
			t.Errorf("%s: violations %q, want %q", c.name, got, c.want)
			continue
		}
		for i := range got {
			if !strings.Contains(got[i], c.want[i]) {
				t.Errorf("%s: violation %q, want %q", c.name, got[i], c.want[i])
			}
		}
		if plain := report(o, build(nil), c.second, false); plain != nil {
			t.Errorf("%s: violations without -selfcheck: %q", c.name, plain)
		}
	}
}
