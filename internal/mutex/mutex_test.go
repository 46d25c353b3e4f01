package mutex

import (
	"encoding/binary"
	"fmt"
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

// TestConfigValidateAllocs: Validate checks a member list without a set.
// An ascending list, which is what every builder hands out, is checked in
// one pass that allocates nothing at any length. Any other list is searched
// on a sorted copy: O(N log N) and one allocation, not a map of N entries
// per instance, and none up to 16 members (a leaf cluster or a coordinator
// group of the grid-scale trees), whose copy lives on the stack. A
// duplicate in last position is still found, and with several duplicates
// the error names the first repeat in list order, as the set-based scan
// did.
func TestConfigValidateAllocs(t *testing.T) {
	ascending, members := upTo(180), upTo(180)
	slices.Reverse(members)
	for _, c := range []struct {
		name    string
		members []ID
		want    float64 // most allocations allowed
	}{
		{"ascending 180 members", ascending, 0},
		{"descending 180 members", members, 1},
		{"descending 10 members", members[170:], 0},
	} {
		cfg := Config{Self: 7, Members: c.members, Holder: 0, Env: nopEnv{}}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
		}); allocs > c.want {
			t.Errorf("Validate of %s allocates %.0f times, want <= %.0f", c.name, allocs, c.want)
		}
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

// upTo returns the IDs 0 to n-1 in ascending order.
func upTo(n int) []ID {
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(i)
	}
	return ids
}

// referenceValidate is Validate as it was before ascending lists took a
// pass of their own: every list searched on a sorted copy. The fuzz target
// holds the one-pass check to it.
func referenceValidate(c Config) error {
	if c.Env == nil {
		return fmt.Errorf("mutex: nil Env")
	}
	if len(c.Members) == 0 {
		return fmt.Errorf("mutex: no members")
	}
	var buf [16]ID
	sorted := append(buf[:0], c.Members...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return fmt.Errorf("mutex: duplicate member %d", firstRepeat(c.Members))
		}
	}
	selfOK, holderOK := false, false
	for _, m := range c.Members {
		if m == c.Self {
			selfOK = true
		}
		if m == c.Holder {
			holderOK = true
		}
	}
	if !selfOK {
		return fmt.Errorf("mutex: self %d not in members", c.Self)
	}
	if !holderOK {
		return fmt.Errorf("mutex: holder %d not in members", c.Holder)
	}
	return nil
}

// encodeMembers is the fuzz input format of a member list: two bytes per
// member, little-endian, as a signed 16-bit ID.
func encodeMembers(ids ...ID) []byte {
	out := make([]byte, 0, 2*len(ids))
	for _, id := range ids {
		out = binary.LittleEndian.AppendUint16(out, uint16(int16(id)))
	}
	return out
}

// FuzzConfigValidate holds Validate to referenceValidate on any member
// list, Self, Holder and nil or non-nil Env: both accept, or both return
// the same error text.
func FuzzConfigValidate(f *testing.F) {
	ascending, descending := upTo(180), upTo(180)
	slices.Reverse(descending)
	f.Add(encodeMembers(ascending...), int16(7), int16(0), false)
	f.Add(encodeMembers(descending...), int16(7), int16(0), false)
	f.Add(encodeMembers(5, 9, 2, 9, 5), int16(5), int16(2), false)
	f.Add(encodeMembers(append(slices.Clone(descending[:179]), 42)...), int16(7), int16(0), false)
	f.Add(encodeMembers(0, 1, 2, 3, 3, 4, 5), int16(1), int16(0), false)
	f.Add(encodeMembers(3), int16(3), int16(3), false)
	f.Add([]byte{}, int16(0), int16(0), false)
	f.Add(encodeMembers(0, 1, 2), int16(1), int16(0), true)
	f.Fuzz(func(t *testing.T, data []byte, self, holder int16, nilEnv bool) {
		// Naming the first repeat is quadratic in a rejected list's length:
		// 1,024 members keep every input fast and reach well past the 16
		// that fit on the stack.
		data = data[:min(len(data), 2048)]
		members := make([]ID, len(data)/2)
		for i := range members {
			members[i] = ID(int16(binary.LittleEndian.Uint16(data[2*i:])))
		}
		c := Config{Self: ID(self), Members: members, Holder: ID(holder), Env: nopEnv{}}
		if nilEnv {
			c.Env = nil
		}
		got, want := c.Validate(), referenceValidate(c)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Validate(%+v) = %v, reference %v", c, got, want)
		}
	})
}
