package wire

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/algorithms/algotest"
	"gridmutex/internal/algorithms/central"
	"gridmutex/internal/algorithms/naimitrehel"
	"gridmutex/internal/algorithms/raymond"
	"gridmutex/internal/algorithms/ricartagrawala"
	"gridmutex/internal/algorithms/ring"
	"gridmutex/internal/algorithms/suzukikasami"
	"gridmutex/internal/core"
	"gridmutex/internal/mutex"
	"gridmutex/internal/topology"
)

// roundTrip encodes and fully decodes a message.
func roundTrip(t *testing.T, m mutex.Message) mutex.Message {
	t.Helper()
	b, err := Encode(nil, m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	got, err := DecodeFull(b)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []mutex.Message{
		naimitrehel.Request{Origin: 17},
		naimitrehel.Token{},
		ring.Request{},
		ring.Token{},
		suzukikasami.Request{Seq: 999},
		suzukikasami.Token{LN: []int64{1, -2, 3}, Q: []mutex.ID{4, 5}},
		suzukikasami.Token{LN: []int64{}, Q: nil},
		raymond.Request{},
		raymond.Privilege{},
		central.Request{},
		central.Grant{},
		central.ReleaseMsg{},
		central.Nudge{},
		core.Envelope{Level: 2, Inner: naimitrehel.Request{Origin: 9}},
		ricartagrawala.Request{Clock: 12},
		ricartagrawala.Reply{},
		core.Envelope{Level: 1, Inner: suzukikasami.Token{LN: []int64{5}}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		want := m
		// Decoder normalizes empty slices to their canonical form.
		if tok, ok := want.(suzukikasami.Token); ok && len(tok.LN) == 0 {
			want = suzukikasami.Token{LN: []int64{}, Q: nil}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip of %T: got %#v, want %#v", m, got, want)
		}
	}
}

// TestRegistryTrafficRoundTrips takes the codec's scope from real runs:
// every message a two-level composition of registry algorithms sends, at
// either level, is a core.Envelope a UDP deployment puts on the wire, and
// each must decode to exactly the value that was sent.
func TestRegistryTrafficRoundTrips(t *testing.T) {
	var specs []core.Spec
	for _, name := range algorithms.Names() {
		specs = append(specs, core.Spec{Intra: name, Inter: "naimi"})
		if name != "naimi" {
			specs = append(specs, core.Spec{Intra: "naimi", Inter: name})
		}
	}
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			w := algotest.NewWorld()
			insts := make(map[mutex.ID]mutex.Instance)
			d, err := core.BuildComposed(w, topology.Uniform(2, 3, 0, 0), spec, func(id mutex.ID) mutex.Callbacks {
				return mutex.Callbacks{OnAcquire: func() { w.Env(id).Local(insts[id].Release) }}
			})
			if err != nil {
				t.Fatal(err)
			}
			w.Settle()
			for _, a := range d.Apps {
				insts[a.ID] = a.Instance
				a.Instance.Request()
			}
			if err := w.Drain(100_000); err != nil {
				t.Fatal(err)
			}
			for _, a := range d.Apps {
				if st := a.Instance.State(); st != mutex.NoReq {
					t.Fatalf("app %d ends in state %v, want every request served", a.ID, st)
				}
			}
			for _, s := range w.Log() {
				if got := roundTrip(t, s.Msg); !reflect.DeepEqual(got, s.Msg) {
					t.Errorf("%d->%d: sent %#v, decoded %#v", s.From, s.To, s.Msg, got)
				}
			}
		})
	}
}

// TestTagsPinned pins each type's tag byte, and keeps the retired adaptive
// tags 14-18 unknown so no later type reuses them.
func TestTagsPinned(t *testing.T) {
	tags := []struct {
		m   mutex.Message
		tag byte
	}{
		{naimitrehel.Request{}, 1},
		{naimitrehel.Token{}, 2},
		{ring.Request{}, 3},
		{ring.Token{}, 4},
		{suzukikasami.Request{}, 5},
		{suzukikasami.Token{}, 6},
		{raymond.Request{}, 7},
		{raymond.Privilege{}, 8},
		{central.Request{}, 9},
		{central.Grant{}, 10},
		{central.ReleaseMsg{}, 11},
		{central.Nudge{}, 12},
		{core.Envelope{Inner: ring.Token{}}, 13},
		{ricartagrawala.Request{}, 19},
		{ricartagrawala.Reply{}, 20},
	}
	for _, c := range tags {
		b, err := Encode(nil, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != c.tag {
			t.Errorf("%T encodes with tag %d, want %d", c.m, b[0], c.tag)
		}
	}
	for tag := byte(14); tag <= 18; tag++ {
		b := append([]byte{tag}, make([]byte, 64)...)
		if _, _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "unknown message tag") {
			t.Errorf("retired tag %d: err = %v, want unknown message tag", tag, err)
		}
	}
}

func TestEncodeUnknownType(t *testing.T) {
	if _, err := Encode(nil, bogus{}); err == nil {
		t.Fatal("unknown type encoded")
	}
	// Inside an envelope too.
	if _, err := Encode(nil, core.Envelope{Inner: bogus{}}); err == nil {
		t.Fatal("unknown nested type encoded")
	}
}

type bogus struct{}

func (bogus) Kind() string { return "bogus" }
func (bogus) Size() int    { return 0 }

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":                  {},
		"unknown tag":            {0xFF},
		"truncated naimi origin": {1, 0, 0},
		"truncated suzuki seq":   {5, 1},
		"truncated suzuki token": {6, 0, 0, 0, 2, 0},
		"truncated envelope":     {13},
	}
	for name, b := range cases {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
}

func TestDecodeFullRejectsTrailing(t *testing.T) {
	b, err := Encode(nil, ring.Token{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFull(append(b, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestCorruptLengthRejected(t *testing.T) {
	// A suzuki token claiming 2^30 LN entries.
	b := []byte{6, 0x40, 0, 0, 0}
	if _, _, err := Decode(b); err == nil {
		t.Fatal("absurd length accepted")
	}
}

// Property: every generated Suzuki token survives the round trip.
func TestPropertySuzukiTokenRoundTrip(t *testing.T) {
	f := func(ln []int64, q []int32) bool {
		tok := suzukikasami.Token{LN: append([]int64{}, ln...)}
		for _, v := range q {
			tok.Q = append(tok.Q, mutex.ID(v))
		}
		b, err := Encode(nil, tok)
		if err != nil {
			return false
		}
		got, err := DecodeFull(b)
		if err != nil {
			return false
		}
		gt := got.(suzukikasami.Token)
		if len(gt.LN) != len(tok.LN) || len(gt.Q) != len(tok.Q) {
			return false
		}
		for i := range tok.LN {
			if gt.LN[i] != tok.LN[i] {
				return false
			}
		}
		for i := range tok.Q {
			if gt.Q[i] != tok.Q[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random byte strings never panic the decoder.
func TestPropertyDecoderTotality(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("decoder panicked on %x: %v", b, r)
			}
		}()
		m, n, err := Decode(b)
		if err == nil && (m == nil || n <= 0 || n > len(b)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: envelopes of random levels and simple inner messages round
// trip.
func TestPropertyEnvelopeRoundTrip(t *testing.T) {
	f := func(level uint8, origin int32, seq int64) bool {
		var inner mutex.Message
		switch seq % 3 {
		case 0:
			inner = naimitrehel.Request{Origin: mutex.ID(origin)}
		case 1:
			inner = suzukikasami.Request{Seq: seq}
		default:
			inner = central.Grant{}
		}
		env := core.Envelope{Level: core.Level(level), Inner: inner}
		b, err := Encode(nil, env)
		if err != nil {
			return false
		}
		got, err := DecodeFull(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, env)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
