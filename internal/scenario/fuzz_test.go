package scenario

import (
	"bytes"
	"testing"
)

// FuzzLoadScenario hardens the whole loader stack — parser, decoder,
// validation — against adversarial documents. Properties: Load never
// panics, and anything it accepts re-validates and re-loads to the same
// model (the strict subset has no ambiguous spellings).
func FuzzLoadScenario(f *testing.F) {
	// A valid document exercising most of the schema.
	f.Add(`name: fuzz-seed
seed: 7
topology:
  clusters: 2
  apps_per_cluster: 2
workload:
  rho: 4
  cs_per_process: 3
system:
  intra: naimi
  inter: martin
expect:
  envelopes:
    - metric: grants
      min: 1
`)
	f.Add(minimal)
	// Structural malformations the parser must reject, not crash on.
	f.Add("name: a\nname: b\n")                // duplicate key
	f.Add("name: t\n\tbad: tab\n")             // tab indentation
	f.Add("topology:\n   kind: uniform\n")     // odd indent
	f.Add("faults:\n  -\n")                    // bare dash
	f.Add("- just\n- a\n- list\n")             // non-mapping root
	f.Add("name: t\ntopology:\n")              // key with no block
	f.Add("a:\n  b:\n    c:\n      d: deep\n") // deep nesting
	// Semantic malformations the decoder/validator must reject.
	f.Add("name: t\nworkload:\n  rho: NaN\n")      // NaN rate
	f.Add("name: t\nworkload:\n  rho: -Inf\n")     // infinite rate
	f.Add("name: t\nworkload:\n  alpha: -5ms\n")   // negative duration
	f.Add("name: t\nrun:\n  horizon: 99999999h\n") // overflowing duration
	f.Add("name: t\nexpect:\n  envelopes:\n    - metric: no_such_invariant\n      max: 1\n")
	f.Add("name: t\nsystem:\n  intra: bogus-algo\n  inter: naimi\n")
	f.Add("name: t\nseed: 99999999999999999999\n")                                                   // integer overflow
	f.Add("name: t\nworkload:\n  alpha: 1h\n  rho: 1e18\nsystem:\n  intra: naimi\n  inter: naimi\n") // beta overflow
	f.Add("name: t\nworkload:\n  rho: 1e300\nsystem:\n  intra: naimi\n  inter: naimi\n")
	f.Add("name: t\nworkload:\n  alpha: 9h\n  phases:\n    - rho: 1e17\n      until: 1s\nsystem:\n  intra: naimi\n  inter: naimi\n  adaptive: true\n")
	f.Add("name: \x00\x01\x02\n") // control bytes
	// Envelopes gated by the registry's needs column: met, then unmet.
	f.Add("name: t\nsystem:\n  intra: naimi\n  inter: naimi\n  recovery: true\nexpect:\n  envelopes:\n    - metric: epochs\n      min: 1\n")
	f.Add("name: t\nsystem:\n  intra: naimi\n  inter: naimi\nexpect:\n  envelopes:\n    - metric: retransmits\n      min: 1\n")

	f.Fuzz(func(t *testing.T, doc string) {
		sc, err := Load([]byte(doc))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		// Accepted documents are normalized: re-validation is a no-op.
		if err := sc.Validate(); err != nil {
			t.Fatalf("accepted scenario fails re-validation: %v\ndoc:\n%s", err, doc)
		}
		// Loading the same bytes again yields the same model (the loader
		// has no hidden state).
		again, err := Load([]byte(doc))
		if err != nil {
			t.Fatalf("second load of accepted doc rejected: %v", err)
		}
		if sc.Name != again.Name || sc.Seed != again.Seed ||
			len(sc.Faults) != len(again.Faults) ||
			len(sc.Expect.Envelopes) != len(again.Expect.Envelopes) {
			t.Fatalf("loads of identical bytes disagree:\n%+v\n%+v", sc, again)
		}
		// Every accepted matrix topology round-trips through its own
		// formatter, mirroring the topology fuzz contract.
		if sc.Topology.Matrix != nil {
			formatted := sc.Topology.Matrix.Format()
			if !bytes.Contains([]byte(formatted), []byte("from")) {
				t.Fatalf("matrix formats without header: %q", formatted)
			}
		}
	})
}
