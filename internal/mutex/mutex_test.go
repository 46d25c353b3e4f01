package mutex

import (
	"slices"
	"strings"
	"testing"
)

type nopEnv struct{}

func (nopEnv) Send(ID, Message) {}
func (nopEnv) Local(func())     {}

func validConfig() Config {
	return Config{Self: 1, Members: []ID{0, 1, 2}, Holder: 0, Env: nopEnv{}}
}

func TestConfigValidateOK(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil env", func(c *Config) { c.Env = nil }},
		{"no members", func(c *Config) { c.Members = nil }},
		{"self not member", func(c *Config) { c.Self = 9 }},
		{"holder not member", func(c *Config) { c.Holder = 9 }},
		{"duplicate member", func(c *Config) { c.Members = []ID{0, 1, 1} }},
	}
	for _, tc := range cases {
		c := validConfig()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", tc.name)
		}
	}
}

func TestConfigIndex(t *testing.T) {
	c := Config{Members: []ID{5, 7, 9}}
	for i, id := range c.Members {
		if got := c.Index(id); got != i {
			t.Errorf("Index(%d) = %d, want %d", id, got, i)
		}
	}
	if got := c.Index(42); got != -1 {
		t.Errorf("Index(42) = %d, want -1", got)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{NoReq: "NO_REQ", Req: "REQ", InCS: "CS", State(9): "State(9)"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// TestConfigValidateEdges pins the boundary semantics of Validate beyond
// the plain error cases: which degenerate-but-legal configurations are
// accepted, and that every rejection names the offending field.
func TestConfigValidateEdges(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring of the error, "" for accepted
	}{
		{
			name: "single member that is self and holder",
			cfg:  Config{Self: 3, Members: []ID{3}, Holder: 3, Env: nopEnv{}},
		},
		{
			name:    "empty non-nil member list",
			cfg:     Config{Self: 0, Members: []ID{}, Holder: 0, Env: nopEnv{}},
			wantErr: "no members",
		},
		{
			name:    "duplicate of self still rejected",
			cfg:     Config{Self: 1, Members: []ID{0, 1, 1}, Holder: 0, Env: nopEnv{}},
			wantErr: "duplicate member 1",
		},
		{
			name:    "duplicate of holder still rejected",
			cfg:     Config{Self: 1, Members: []ID{0, 0, 1}, Holder: 0, Env: nopEnv{}},
			wantErr: "duplicate member 0",
		},
		{
			name:    "holder None sentinel is not a member",
			cfg:     Config{Self: 0, Members: []ID{0, 1}, Holder: None, Env: nopEnv{}},
			wantErr: "holder -1 not in members",
		},
		{
			name:    "self None sentinel is not a member",
			cfg:     Config{Self: None, Members: []ID{0, 1}, Holder: 0, Env: nopEnv{}},
			wantErr: "self -1 not in members",
		},
		{
			name: "negative IDs are legal when consistent",
			cfg:  Config{Self: -7, Members: []ID{-7, -3}, Holder: -3, Env: nopEnv{}},
		},
		{
			name:    "nil env reported before member problems",
			cfg:     Config{Self: 0, Members: nil, Holder: 0, Env: nil},
			wantErr: "nil Env",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate rejected legal config: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate accepted bad config, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestConfigIndexEdges pins Index on degenerate receivers: Index must be
// callable on configurations Validate would reject (algorithms index
// before validation in some constructors) and must return the first
// occurrence when the member list is malformed.
func TestConfigIndexEdges(t *testing.T) {
	var zero Config
	if got := zero.Index(0); got != -1 {
		t.Errorf("zero-value Index(0) = %d, want -1", got)
	}
	empty := Config{Members: []ID{}}
	if got := empty.Index(0); got != -1 {
		t.Errorf("empty Index(0) = %d, want -1", got)
	}
	dup := Config{Members: []ID{4, 2, 4}}
	if got := dup.Index(4); got != 0 {
		t.Errorf("duplicate-member Index(4) = %d, want first occurrence 0", got)
	}
	if got := dup.Index(None); got != -1 {
		t.Errorf("Index(None) = %d, want -1", got)
	}
	sentinel := Config{Members: []ID{None, 1}}
	if got := sentinel.Index(None); got != 0 {
		t.Errorf("Index(None) with None member = %d, want 0", got)
	}
}

// selfSendEnv records sends so tests can assert an instance never sends
// to itself — the Env contract leaves self-delivery undefined, so the
// single-member configuration must short-circuit locally.
type selfSendEnv struct{ sent []ID }

func (e *selfSendEnv) Send(to ID, _ Message) { e.sent = append(e.sent, to) }
func (e *selfSendEnv) Local(f func())        { f() }

// TestSingleMemberNoSelfSend drives a request/release cycle on a
// single-member configuration of the zero-dependency reference shape (a
// trivial inline instance is enough — the property under test is that the
// config machinery supports the degenerate instance without any Send).
func TestSingleMemberNoSelfSend(t *testing.T) {
	env := &selfSendEnv{}
	cfg := Config{Self: 0, Members: []ID{0}, Holder: 0, Env: env}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	acquired := 0
	cfg.Callbacks = Callbacks{OnAcquire: func() { acquired++ }}
	// The degenerate holder-of-one: request grants immediately via Local.
	if cfg.Self == cfg.Holder && len(cfg.Members) == 1 {
		cfg.Env.Local(cfg.Callbacks.OnAcquire)
	}
	if acquired != 1 {
		t.Fatalf("acquired %d times, want 1", acquired)
	}
	if len(env.sent) != 0 {
		t.Fatalf("single-member cycle sent %d messages (to %v), want none", len(env.sent), env.sent)
	}
}

// TestConfigValidateAllocs: Validate checks a member list without a set, so
// a flat deployment of N instances costs O(N log N) each and one
// allocation, not a map of N entries per instance, and a group of up to 16
// members (a leaf cluster or a coordinator group of the grid-scale trees)
// none: its sorted copy lives on the stack. A duplicate in last
// position is still found, and with several duplicates the error names
// the first repeat in list order, as the set-based scan did.
func TestConfigValidateAllocs(t *testing.T) {
	members := make([]ID, 180)
	for i := range members {
		members[i] = ID(179 - i)
	}
	cfg := Config{Self: 7, Members: members, Holder: 0, Env: nopEnv{}}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("Validate of 180 members allocates %.0f times, want <= 1", allocs)
	}
	small := Config{Self: 7, Members: members[170:], Holder: 0, Env: nopEnv{}}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := small.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate of 10 members allocates %.0f times, want 0", allocs)
	}
	last := append(slices.Clone(members[:179]), 42)
	if err := (Config{Self: 7, Members: last, Holder: 0, Env: nopEnv{}}).Validate(); err == nil ||
		err.Error() != "mutex: duplicate member 42" {
		t.Errorf("duplicate in last position: Validate() = %v", err)
	}
	if err := (Config{Self: 5, Members: []ID{5, 9, 2, 9, 5}, Holder: 2, Env: nopEnv{}}).Validate(); err == nil ||
		err.Error() != "mutex: duplicate member 9" {
		t.Errorf("two duplicates: Validate() = %v, want the first repeat in list order (9)", err)
	}
}
