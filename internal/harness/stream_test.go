package harness

import (
	"reflect"
	"testing"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/run"
	"gridmutex/internal/stats"
	"gridmutex/internal/workload"
)

// runOnce drives one seeded (system, ρ) repetition and returns its grants
// in grant order, for tests that read them after the run.
func runOnce(sys System, scale Scale, rho float64, seed int64) ([]workload.Record, error) {
	spec, err := scale.spec(sys.RunSystem(), rho, seed)
	if err != nil {
		return nil, err
	}
	var grants []workload.Record
	spec.OnGrant = func(r workload.Record) { grants = append(grants, r) }
	_, err = drive(spec)
	return grants, err
}

// digestRecords is the reference digest: it walks a run's collected grants
// after the fact, in grant order, pushing each sample where repPartial.digest
// pushes it as the grant happens.
func digestRecords(scale Scale, out run.Outcome, records []workload.Record) repPartial {
	p := newRepPartial(scale.Phases, false)
	p.finish(out)
	for _, r := range records {
		ms := float64(r.Obtaining()) / float64(time.Millisecond)
		p.obtain.Push(ms)
		if len(scale.Phases) > 0 {
			p.phase[phaseOf(scale.Phases, r.AcquiredAt)].Push(ms)
		}
		for int(r.ID) >= len(p.perProc) {
			p.perProc = append(p.perProc, stats.Accumulator{})
		}
		p.perProc[r.ID].Push(ms)
		for r.Cluster >= len(p.perCluster) {
			p.perCluster = append(p.perCluster, stats.Accumulator{})
		}
		p.perCluster[r.Cluster].Push(ms)
	}
	return p
}

// buffered drives spec with a sink that collects every grant into a list,
// and checks the list against the outcome's grant count.
func buffered(t *testing.T, spec run.Spec) (run.Outcome, []workload.Record) {
	t.Helper()
	var records []workload.Record
	spec.OnGrant = func(r workload.Record) { records = append(records, r) }
	out, err := drive(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 || len(records) != out.Grants {
		t.Fatalf("%d records for %d grants", len(records), out.Grants)
	}
	return out, records
}

// TestStreamedDigestEqualsBuffered: folding each grant into the digest as
// it happens (run.Spec.OnGrant) gives, bit for bit, the partials and the
// merged points that folding the buffered record list after the run gives —
// for a composition, a flat system, a phased adaptive system (phase
// binning by grant instant) and one recovery and one partition cell, every
// repetition of a quick-scale cell.
func TestStreamedDigestEqualsBuffered(t *testing.T) {
	scale := QuickScale()
	phased := scale
	phased.Phases = AdaptivePhases(phased)
	recParams, recScale := recoverySweep(QuickScale())
	partParams, partScale, err := partitionSweep(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	recParams.Spec = core.Spec{Intra: "naimi", Inter: "naimi"}
	figure := func(sys System, scale Scale, rho float64) cell {
		return cell{sys: sys.RunSystem(), scale: scale, at: Point{System: sys.Name, Rho: rho}}
	}
	for _, tc := range []struct {
		name string
		c    cell
	}{
		{"Naimi-Martin", figure(Composed("naimi", "martin"), scale, 24)},
		{"Naimi (original)", figure(Flat("naimi"), scale, 6)},
		{"Naimi-Adaptive", figure(Adaptive("naimi", "naimi"), phased, 0)},
		{"recovery", recoveryCells(recParams, recScale)[0]},
		{"partition", partitionCells(partParams, partScale)[0]},
	} {
		c := tc.c
		t.Run(tc.name, func(t *testing.T) {
			var streamed, reference []repPartial
			for rep := 0; rep < c.scale.Repetitions; rep++ {
				got, err := runRep(&c, rep)
				if err != nil {
					t.Fatal(err)
				}
				spec, err := c.spec(rep)
				if err != nil {
					t.Fatal(err)
				}
				out, records := buffered(t, spec)
				want := digestRecords(c.scale, out, records)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("repetition %d: streamed partial differs from the buffered digest", rep)
				}
				if len(c.scale.Phases) > 0 && len(got.phase) != len(c.scale.Phases) {
					t.Fatalf("repetition %d: %d phase bins for %d phases", rep, len(got.phase), len(c.scale.Phases))
				}
				streamed, reference = append(streamed, got), append(reference, want)
			}
			got, err := mergeCell(&c, streamed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mergeCell(&c, reference)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("merged point differs:\n streamed %+v\n buffered %+v", got, want)
			}
		})
	}
}
