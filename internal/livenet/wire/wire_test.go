package wire

import (
	"reflect"
	"testing"
	"testing/quick"

	"gridmutex/internal/adaptive"
	"gridmutex/internal/algorithms/central"
	"gridmutex/internal/algorithms/naimitrehel"
	"gridmutex/internal/algorithms/raymond"
	"gridmutex/internal/algorithms/ricartagrawala"
	"gridmutex/internal/algorithms/ring"
	"gridmutex/internal/algorithms/suzukikasami"
	"gridmutex/internal/core"
	"gridmutex/internal/mutex"
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
	at := adaptive.Attempt{Proposer: 3, Seq: 42}
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
		adaptive.Prepare{Attempt: at, Alg: "martin"},
		adaptive.Vote{Attempt: at, Ok: true},
		adaptive.Vote{Attempt: at, Ok: false},
		adaptive.Commit{Attempt: at, Gen: 7, Alg: "suzuki"},
		adaptive.Abort{Attempt: at},
		adaptive.Inner{Gen: 3, M: ring.Token{}},
		ricartagrawala.Request{Clock: 12},
		ricartagrawala.Reply{},
		// Nested: an envelope around an adaptive inner around a token.
		core.Envelope{Level: 1, Inner: adaptive.Inner{Gen: 1, M: suzukikasami.Token{LN: []int64{5}}}},
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
		"truncated vote":         {15, 0, 0, 0, 1},
		"truncated name":         {14, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 5, 'a'},
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

func TestOversizeNameRejected(t *testing.T) {
	long := make([]byte, MaxNameLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := Encode(nil, adaptive.Prepare{Alg: string(long)}); err == nil {
		t.Fatal("oversize name encoded")
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
