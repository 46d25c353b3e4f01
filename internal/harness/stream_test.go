package harness

import (
	"reflect"
	"testing"
	"time"

	"gridmutex/internal/core"
	"gridmutex/internal/run"
	"gridmutex/internal/stats"
)

// runOnce drives one seeded (system, ρ) repetition with the runner's record
// buffer on, for tests that read the grants after the run.
func runOnce(sys System, scale Scale, rho float64, seed int64) (run.Outcome, error) {
	spec, err := scale.spec(sys.RunSystem(), rho, seed)
	if err != nil {
		return run.Outcome{}, err
	}
	return drive(spec)
}

// digestRecords is the reference digest: it walks a buffered run's records
// after the fact, in grant order, pushing each sample where repPartial.digest
// pushes it as the grant happens.
func digestRecords(scale Scale, out run.Outcome) repPartial {
	p := newRepPartial(scale.Phases)
	p.finish(out)
	for _, r := range out.Records {
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

// digestRecoveryRecords is the reference digest of a buffered recovery run.
func digestRecoveryRecords(out run.Outcome) recPartial {
	p := newRecPartial()
	p.finish(out)
	for _, r := range out.Records {
		p.obtain.Push(float64(r.Obtaining()) / float64(time.Millisecond))
	}
	return p
}

// buffered drives spec with the record buffer on and checks the outcome's
// two views of the grants agree.
func buffered(t *testing.T, spec run.Spec) run.Outcome {
	t.Helper()
	out, err := drive(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Records) == 0 || len(out.Records) != out.Grants {
		t.Fatalf("%d records for %d grants", len(out.Records), out.Grants)
	}
	return out
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
	cells := []cell{
		{sys: Composed("naimi", "martin"), scale: scale, rho: 24},
		{sys: Flat("naimi"), scale: scale, rho: 6},
		{sys: Adaptive("naimi", "naimi"), scale: phased},
	}
	for _, c := range cells {
		t.Run(c.sys.Name, func(t *testing.T) {
			var streamed, reference []repPartial
			for rep := 0; rep < c.scale.Repetitions; rep++ {
				got, err := runRep(c, rep)
				if err != nil {
					t.Fatal(err)
				}
				spec, err := c.scale.spec(c.sys.RunSystem(), c.rho, deriveSeed(c.scale.BaseSeed, c.rho, rep))
				if err != nil {
					t.Fatal(err)
				}
				want := digestRecords(c.scale, buffered(t, spec))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("repetition %d: streamed partial differs from the buffered digest", rep)
				}
				if len(c.scale.Phases) > 0 && len(got.phase) != len(c.scale.Phases) {
					t.Fatalf("repetition %d: %d phase bins for %d phases", rep, len(got.phase), len(c.scale.Phases))
				}
				streamed, reference = append(streamed, got), append(reference, want)
			}
			got, err := mergeCell(c, streamed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mergeCell(c, reference)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("merged point differs:\n streamed %+v\n buffered %+v", got, want)
			}
		})
	}

	recParams, recScale := RecoverySweep(QuickScale())
	partParams, partScale, err := PartitionSweep(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	recParams.Spec = core.Spec{Intra: "naimi", Inter: "naimi"}
	partParams.Spec = recParams.Spec
	recCells := []struct {
		name   string
		scale  Scale
		specOf func(seed int64) (run.Spec, error)
	}{
		{"recovery", recScale, func(seed int64) (run.Spec, error) {
			return recoverySpec(recParams, recScale, recParams.Periods[0], recScale.Rhos[0], seed)
		}},
		{"partition", partScale, func(seed int64) (run.Spec, error) {
			return partitionSpec(partParams, partScale, partParams.Durations[0], partScale.Rhos[0], seed)
		}},
	}
	for _, c := range recCells {
		t.Run(c.name, func(t *testing.T) {
			streamed, reference := newRecPartial(), newRecPartial()
			for rep := 0; rep < c.scale.Repetitions; rep++ {
				spec, err := c.specOf(deriveSeed(c.scale.BaseSeed, c.scale.Rhos[0], rep))
				if err != nil {
					t.Fatal(err)
				}
				got, err := runRecoveryRep(spec)
				if err != nil {
					t.Fatal(err)
				}
				want := digestRecoveryRecords(buffered(t, spec))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("repetition %d: streamed partial differs from the buffered digest", rep)
				}
				streamed.add(&got)
				reference.add(&want)
			}
			got, want := streamed.recoveryPoint(time.Second, 1), reference.recoveryPoint(time.Second, 1)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("merged point differs:\n streamed %+v\n buffered %+v", got, want)
			}
		})
	}
}
