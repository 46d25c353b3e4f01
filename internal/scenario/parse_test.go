package scenario

import (
	"strings"
	"testing"
	"time"
)

// minimal is the smallest loadable scenario.
const minimal = `name: t
system:
  intra: naimi
  inter: naimi
`

func TestLoadMinimalDefaults(t *testing.T) {
	sc, err := Load([]byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Topology.Kind != TopoUniform || sc.Topology.Clusters != 3 || sc.Topology.AppsPerCluster != 3 {
		t.Errorf("topology defaults wrong: %+v", sc.Topology)
	}
	if sc.Topology.LocalRTT != time.Millisecond || sc.Topology.RemoteRTT != 20*time.Millisecond {
		t.Errorf("RTT defaults wrong: %+v", sc.Topology)
	}
	if sc.Workload.Alpha != 5*time.Millisecond || sc.Workload.CSPerProcess != 6 {
		t.Errorf("workload defaults wrong: %+v", sc.Workload)
	}
	if !sc.Expect.Quiescent || sc.Expect.Complete != CompleteAll {
		t.Errorf("expect defaults wrong: %+v", sc.Expect)
	}
	if sc.Expect.CrashExits != -1 || sc.Expect.MinEpochs != -1 || sc.Expect.MinSwitches != -1 {
		t.Errorf("counters must default unchecked: %+v", sc.Expect)
	}
	if sc.System.Reserved() != 1 || sc.NodesPerCluster() != 4 {
		t.Errorf("composed deployment reserves 1 node: reserved=%d per=%d",
			sc.System.Reserved(), sc.NodesPerCluster())
	}
}

func TestLoadFullDocument(t *testing.T) {
	doc := `# full-surface document
name: full-case
doc: everything at once
seed: 42
topology:
  kind: uniform
  clusters: 2
  apps_per_cluster: 4
  local_rtt: 2ms
  remote_rtt: 30ms
workload:
  alpha: 10ms
  dist: constant
  cs_per_process: 7
  hot_cluster: 1
  hot_skew: 3.5
  phases:
    - rho: 2
      until: 100ms
    - rho: 20
system:
  intra: naimi
  inter: martin
network:
  jitter: 0.1
  loss: 0.05
  reliable: true
  rto: 50ms
  max_retries: 12
faults:
  - kind: crash
    node: 3
    at: 40ms
  - kind: restart
    node: 3
    at: 200ms
  - kind: crash_window
    victims: apps
    crashes: 2
    horizon: 150ms
    min_down: 10ms
    max_down: 20ms
  - kind: holder_kill
    victim: 6
    entry: 3
run:
  horizon: 2s
  event_limit: 500000
expect:
  quiescent: false
  complete: none
  envelopes:
    - metric: grants
      min: 1
      max: 100
`
	sc, err := Load([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 42 || sc.Workload.Phases[1].Rho != 20 || len(sc.Faults) != 4 {
		t.Errorf("decoded model wrong: %+v", sc)
	}
	if sc.Faults[3].Victim != 6 || sc.Faults[3].Entry != 3 || sc.Faults[3].Target != "app" {
		t.Errorf("holder_kill decoded wrong: %+v", sc.Faults[3])
	}
	if sc.Run.EventLimit != 500000 || sc.Run.Horizon != 2*time.Second {
		t.Errorf("run spec wrong: %+v", sc.Run)
	}
	if !sc.Expect.Envelopes[0].HasMin || !sc.Expect.Envelopes[0].HasMax {
		t.Errorf("envelope bounds not flagged: %+v", sc.Expect.Envelopes[0])
	}
}

func TestLoadMatrixTopology(t *testing.T) {
	doc := `name: m
topology:
  kind: matrix
  apps_per_cluster: 2
  matrix:
    - from a b
    - a 0.5 9.0
    - b 9.0 0.5
system:
  flat: suzuki
`
	sc, err := Load([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Topology.Clusters != 2 || sc.Topology.Matrix == nil {
		t.Fatalf("matrix not decoded: %+v", sc.Topology)
	}
	if sc.System.Reserved() != 0 {
		t.Errorf("flat deployment reserves no nodes, got %d", sc.System.Reserved())
	}
}

func TestLoadTreeLevels(t *testing.T) {
	doc := `name: deep
topology:
  kind: tree
  fanouts:
    - 2
    - 3
  level_rtt:
    - 40ms
    - 10ms
  apps_per_cluster: 2
system:
  levels:
    - naimi
    - suzuki
    - naimi
  groups:
    - 3
`
	sc, err := Load([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Topology.Clusters; got != 6 {
		t.Fatalf("fan-out product clusters = %d, want 6", got)
	}
	if sc.System.Reserved() != 1 {
		t.Errorf("a hierarchy reserves one coordinator per cluster, got %d", sc.System.Reserved())
	}
	spec := sc.treeSpec()
	if spec.LeafSize != 3 {
		t.Errorf("leaf size = %d, want apps + coordinator = 3", spec.LeafSize)
	}
	if spec.LeafRTT != time.Millisecond {
		t.Errorf("leaf RTT default = %v, want 1ms", spec.LeafRTT)
	}
	if len(sc.System.Levels) != 3 || sc.System.Levels[1] != "suzuki" {
		t.Errorf("levels not decoded: %v", sc.System.Levels)
	}
}

// TestLoadRejects drives every loader layer's rejection path: parser
// (structure), decoder (types, unknown keys), validation (cross-field
// rules). Each rejected document names its problem.
func TestLoadRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"empty", "", "empty document"},
		{"tab indent", "name: t\n\tx: 1\n", "tab"},
		{"odd indent", "topology:\n   kind: uniform\n", "multiple of two"},
		{"over indent", "topology:\n    kind: uniform\n", "exactly two"},
		{"dup key", "name: a\nname: b\n", "duplicate key"},
		{"unknown key", "name: t\nbogus: 1\n", `unknown key "bogus"`},
		{"unknown nested", "name: t\ntopology:\n  size: 3\n", `unknown key "size"`},
		{"key no value", "name: t\ntopology:\n", `"topology" has no value`},
		{"bare dash", "faults:\n  -\n", "bare dash"},
		{"list amid map", "topology:\n  kind: uniform\n  - x\n", "list item amid mapping"},
		{"root list", "- a\n- b\n", "must be a mapping"},
		{"bad bool", "name: t\nsystem:\n  recovery: yes\n  intra: naimi\n  inter: naimi\n", "not a boolean"},
		{"bad int", "name: t\nseed: 1.5\n", "not an integer"},
		{"nan rho", "name: t\nworkload:\n  rho: NaN\nsystem:\n  intra: naimi\n  inter: naimi\n", "not finite"},
		{"inf jitter", "name: t\nnetwork:\n  jitter: +Inf\nsystem:\n  intra: naimi\n  inter: naimi\n", "not finite"},
		{"negative rho", "name: t\nworkload:\n  rho: -3\nsystem:\n  intra: naimi\n  inter: naimi\n", "non-negative"},
		{"negative duration", "name: t\nworkload:\n  alpha: -5ms\nsystem:\n  intra: naimi\n  inter: naimi\n", "non-negative"},
		{"bad duration", "name: t\nworkload:\n  alpha: 5 ms\nsystem:\n  intra: naimi\n  inter: naimi\n", "not a duration"},
		{"beta overflow", "name: t\nworkload:\n  alpha: 1h\n  rho: 1e18\nsystem:\n  intra: naimi\n  inter: naimi\n", "overflows the idle time"},
		{"beta overflow default alpha", "name: t\nworkload:\n  rho: 1e18\nsystem:\n  intra: naimi\n  inter: naimi\n", "overflows the idle time"},
		{"phase beta overflow", "name: t\nworkload:\n  alpha: 1h\n  phases:\n    - rho: 1\n      until: 1s\n    - rho: 1e18\n      until: 2s\nsystem:\n  intra: naimi\n  inter: naimi\n  adaptive: true\n", "phase 1 rho"},
		{"no name", "system:\n  intra: naimi\n  inter: naimi\n", "name is required"},
		{"bad name", "name: Has Spaces\nsystem:\n  intra: naimi\n  inter: naimi\n", "lowercase"},
		{"no system", "name: t\n", "needs intra and inter"},
		{"flat plus intra", "name: t\nsystem:\n  flat: suzuki\n  intra: naimi\n", "flat excludes"},
		{"unknown algorithm", "name: t\nsystem:\n  intra: nope\n  inter: naimi\n", "nope"},
		{"adaptive recovery", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\n  adaptive: true\n  recovery: true\n", "cannot combine"},
		{"heartbeat no recovery", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\n  heartbeat: 5ms\n", "needs recovery"},
		{"loss no reliable", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nnetwork:\n  loss: 0.1\n", "needs reliable"},
		{"loss one", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nnetwork:\n  loss: 1\n  reliable: true\n", "outside"},
		{"unknown fault", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nfaults:\n  - kind: meteor\n    node: 0\n    at: 1ms\n", "unknown kind"},
		{"crash no at", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nfaults:\n  - kind: crash\n    node: 0\n", "positive at"},
		{"crash node range", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nfaults:\n  - kind: crash\n    node: 99\n    at: 1ms\n", "outside the"},
		{"holder kill infra victim", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nfaults:\n  - kind: holder_kill\n    victim: 0\n    entry: 1\n", "infrastructure node"},
		{"standby victims no recovery", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nfaults:\n  - kind: crash_window\n    victims: standbys\n    crashes: 1\n    horizon: 10ms\n", "need recovery"},
		{"unknown completion", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nexpect:\n  complete: most\n", "unknown completion"},
		{"unknown metric", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nexpect:\n  envelopes:\n    - metric: vibes\n      max: 1\n", `unknown metric "vibes"`},
		{"empty envelope", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nexpect:\n  envelopes:\n    - metric: grants\n", "neither min nor max"},
		{"inverted envelope", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nexpect:\n  envelopes:\n    - metric: grants\n      min: 5\n      max: 1\n", "above max"},
		{"dup envelope", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nexpect:\n  envelopes:\n    - metric: grants\n      max: 1\n    - metric: grants\n      min: 0\n", "duplicate envelope"},
		{"switches no adaptive", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nexpect:\n  min_switches: 1\n", "needs adaptive"},
		{"standby no recovery", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nexpect:\n  standby_activated:\n    - 0\n", "need recovery"},
		{"cluster out of range", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\nexpect:\n  cluster_complete:\n    - 7\n", "outside the 3-cluster"},
		{"levels plus intra", "name: t\nsystem:\n  intra: naimi\n  levels:\n    - naimi\n    - naimi\n", "levels excludes"},
		{"levels adaptive", "name: t\nsystem:\n  adaptive: true\n  levels:\n    - naimi\n    - naimi\n", "levels excludes adaptive"},
		{"one level", "name: t\nsystem:\n  levels:\n    - naimi\n", "at least 2 levels"},
		{"levels groups mismatch", "name: t\nsystem:\n  levels:\n    - naimi\n    - naimi\n  groups:\n    - 2\n", "group sizes"},
		{"groups no levels", "name: t\nsystem:\n  intra: naimi\n  inter: naimi\n  groups:\n    - 2\n", "groups need a levels list"},
		{"unknown level algorithm", "name: t\nsystem:\n  levels:\n    - naimi\n    - nope\n", "nope"},
		{"group of one", "name: t\nsystem:\n  levels:\n    - naimi\n    - naimi\n    - naimi\n  groups:\n    - 1\n", "one-child group"},
		{"tree no fanouts", "name: t\ntopology:\n  kind: tree\nsystem:\n  intra: naimi\n  inter: naimi\n", "requires a fanouts list"},
		{"fanouts no tree", "name: t\ntopology:\n  fanouts:\n    - 2\nsystem:\n  intra: naimi\n  inter: naimi\n", "require kind: tree"},
		{"tree missing level rtt", "name: t\ntopology:\n  kind: tree\n  fanouts:\n    - 2\n    - 2\n  level_rtt:\n    - 20ms\nsystem:\n  intra: naimi\n  inter: naimi\n", "level RTTs"},
		{"tree fanout one", "name: t\ntopology:\n  kind: tree\n  fanouts:\n    - 1\n  level_rtt:\n    - 20ms\nsystem:\n  intra: naimi\n  inter: naimi\n", "fan-out 1"},
		{"tree clusters contradiction", "name: t\ntopology:\n  kind: tree\n  clusters: 5\n  fanouts:\n    - 2\n    - 2\n  level_rtt:\n    - 20ms\n    - 5ms\nsystem:\n  intra: naimi\n  inter: naimi\n", "contradicts the fan-out product"},
		{"tree inline matrix", "name: t\ntopology:\n  kind: tree\n  fanouts:\n    - 2\n  level_rtt:\n    - 20ms\n  matrix:\n    - from a b\n    - a 0.5 9.0\n    - b 9.0 0.5\nsystem:\n  intra: naimi\n  inter: naimi\n", "requires kind: matrix"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load([]byte(c.doc))
			if err == nil {
				t.Fatalf("accepted:\n%s", c.doc)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestParseErrorsNameLines: structural rejections point at the offending
// source line.
func TestParseErrorsNameLines(t *testing.T) {
	_, err := Load([]byte("name: t\nsystem:\n  intra: naimi\n  inter: naimi\n  intra: dup\n"))
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("error %v does not name line 5", err)
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	doc := "# leading comment\n\nname: t # trailing comment\n\nsystem:\n  intra: naimi\n  inter: naimi  # another\n"
	sc, err := Load([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.System.Inter != "naimi" {
		t.Fatalf("trailing comment leaked into value: %q", sc.System.Inter)
	}
}

func TestKnownMetricRegistry(t *testing.T) {
	names := MetricNames()
	if len(names) < 20 {
		t.Fatalf("registry suspiciously small: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate metric %q", n)
		}
		seen[n] = true
		if !KnownMetric(n) {
			t.Fatalf("registry name %q not known", n)
		}
	}
	if KnownMetric("no-such-metric") {
		t.Fatal("unknown name accepted")
	}
}
