package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// exactCounts are the per-layer metrics that must repeat exactly between two
// runs on one seed: counts the simulator or an allocation-free path makes.
// The trace.* counts are exact on the simulated workloads only.
var exactCounts = []string{
	"alg.naimi.msgs_per_cs.m20", "alg.martin.msgs_per_cs.m20", "alg.suzuki.msgs_per_cs.m20",
	"des.allocs_per_event", "simnet.allocs_per_msg",
	"trace.events", "trace.msgs_per_cs", "trace.inter_msgs_per_cs", "trace.events_per_cs",
}

// child runs one workload in a process of its own — a fresh heap, its own
// resident-set high-water mark, nothing else running — and parses the result
// it prints last.
func child(exe string, o opts, workload string, seed int64, trace int) (*result, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", o.outDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if jsonErr := json.Unmarshal(lines[len(lines)-1], &res); jsonErr != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: no result (%v): %s", workload, seed, trace, err, stdout)
	}
	if err != nil || !res.Correct {
		return &res, fmt.Errorf("%s seed %d trace %d: correct=%v failed=%d (%v):\n%s", workload, seed, trace, res.Correct, res.Failed, err, stdout)
	}
	return &res, nil
}

// set is one complete pass: every workload on every seed end to end, and one
// traced run per workload.
type set struct {
	endToEnd map[string]map[string][]float64 // workload -> metric -> value per seed
	perLayer map[string]metrics              // workload -> the traced run's metrics
}

func runSet(exe string, o opts, trials int) (*set, error) {
	s := &set{endToEnd: map[string]map[string][]float64{}, perLayer: map[string]metrics{}}
	total := time.Now()
	for _, w := range workloads {
		start := time.Now()
		values := map[string][]float64{}
		for i := 0; i < trials; i++ {
			res, err := child(exe, o, w.name, o.seed+int64(i), 0)
			if err != nil {
				return nil, err
			}
			line := fmt.Sprintf("%-18s seed=%-3d", w.name, o.seed+int64(i))
			for _, d := range endToEnd {
				v := res.Metrics[d.Name].Value
				values[d.Name] = append(values[d.Name], v)
				line += fmt.Sprintf(" %s=%.6g", d.Name, v)
			}
			o.logf("%s", line)
		}
		s.endToEnd[w.name] = values
		res, err := child(exe, o, w.name, o.seed, 1)
		if err != nil {
			return nil, err
		}
		s.perLayer[w.name] = res.Metrics
		o.logf("%-18s %d end-to-end runs and 1 traced run in %.0f s", w.name, trials, time.Since(start).Seconds())
	}
	o.logf("set total %.0f s", time.Since(total).Seconds())
	return s, nil
}

// quartiles are Python's statistics.quantiles(values, n=4), the method the
// benchmark's driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0], data[0]
	}
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the first and third quartile as a share of
// the median.
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// worse is the share of a by which b is worse, in the metric's direction.
func worse(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSets is the mode without -workload: one set printed metric by metric,
// or under -selfcheck two sets compared against the benchmark's own bounds.
func runSets(o opts, trials int, selfcheck bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	o.logf("bench: %s gomaxprocs=%d numcpu=%d commit=%s seed=%d trials=%d seconds=%g smoke=%v",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, o.seed, trials, o.seconds, o.smoke)
	first, err := runSet(exe, o, trials)
	if err != nil {
		return err
	}
	second := first
	if selfcheck {
		if second, err = runSet(exe, o, trials); err != nil {
			return err
		}
	}
	violations := report(o, first, second, selfcheck)
	for _, v := range violations {
		o.logf("SELFCHECK: %s", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("selfcheck: %d metrics beyond their bounds", len(violations))
	}
	return nil
}

// report prints every metric of a set, and beside it the second set's when
// they differ. Under selfcheck it returns what the benchmark's driver would
// refuse: an end-to-end spread (setup_s excepted) or a shift of the median
// beyond the metric's bound, and an exact count that did not repeat.
func report(o opts, first, second *set, selfcheck bool) (violations []string) {
	o.logf("\n%-18s %-16s %-7s %14s %14s %14s %8s %7s %14s %8s %8s", "workload", "metric", "unit",
		"median", "min", "max", "spread", "bound", "second median", "spread", "worse")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := first.endToEnd[w.name][d.Name], second.endToEnd[w.name][d.Name]
			sp, sp2, ws := spread(a), spread(b), worse(d, median(a), median(b))
			o.logf("%-18s %-16s %-7s %14.6g %14.6g %14.6g %8.4f %7.2f %14.6g %8.4f %+8.4f", w.name, d.Name, d.Unit,
				median(a), slices.Min(a), slices.Max(a), sp, d.Bound, median(b), sp2, ws)
			if !selfcheck {
				continue
			}
			if d.Name != "setup_s" && max(sp, sp2) > d.Bound {
				violations = append(violations, fmt.Sprintf("%s %s: spread %.4f / %.4f beyond bound %.2f", w.name, d.Name, sp, sp2, d.Bound))
			}
			if ws > d.Bound {
				violations = append(violations, fmt.Sprintf("%s %s: second median worse by %.4f, bound %.2f", w.name, d.Name, ws, d.Bound))
			}
		}
	}
	o.logf("\nper-layer metrics (one traced run per workload, seed %d)", o.seed)
	header := fmt.Sprintf("%-36s %-7s", "metric", "unit")
	for _, w := range workloads {
		header += fmt.Sprintf(" %16s", w.name)
	}
	o.logf("%s", header)
	for _, d := range perLayer {
		row := fmt.Sprintf("%-36s %-7s", d.Name, d.Unit)
		for _, w := range workloads {
			row += fmt.Sprintf(" %16.6g", first.perLayer[w.name][d.Name].Value)
		}
		o.logf("%s", row)
	}
	if !selfcheck {
		return nil
	}
	for _, w := range workloads {
		for _, name := range exactCounts {
			if strings.HasPrefix(name, "trace.") && w.name == "live-udp-handoff" {
				continue
			}
			if a, b := first.perLayer[w.name][name].Value, second.perLayer[w.name][name].Value; a != b {
				violations = append(violations, fmt.Sprintf("%s %s: exact count read %v then %v", w.name, name, a, b))
			}
		}
	}
	return violations
}
