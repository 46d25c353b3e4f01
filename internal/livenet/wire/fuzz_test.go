package wire

import (
	"reflect"
	"testing"

	"gridmutex/internal/algorithms/naimitrehel"
	"gridmutex/internal/algorithms/ricartagrawala"
	"gridmutex/internal/algorithms/suzukikasami"
	"gridmutex/internal/core"
	"gridmutex/internal/mutex"
)

// FuzzDecode feeds arbitrary bytes to the decoder: it must never panic,
// and anything it accepts must re-encode to bytes that decode to the same
// value (a decode/encode/decode fixed point). `go test` runs the seed
// corpus; `go test -fuzz=FuzzDecode ./internal/livenet/wire` explores.
func FuzzDecode(f *testing.F) {
	seed := []mutex.Message{
		naimitrehel.Request{Origin: 5},
		suzukikasami.Token{LN: []int64{1, 2, 3}, Q: []mutex.ID{7}},
		core.Envelope{Level: 1, Inner: naimitrehel.Token{}},
		core.Envelope{Level: 0, Inner: ricartagrawala.Request{Clock: 3}},
	}
	for _, m := range seed {
		b, err := Encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Add([]byte{6, 0x7F, 0xFF, 0xFF, 0xFF}) // absurd suzuki LN length

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Decode(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if m == nil || n <= 0 || n > len(data) {
			t.Fatalf("accepted but inconsistent: m=%v n=%d len=%d", m, n, len(data))
		}
		re, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("decoded message %T does not re-encode: %v", m, err)
		}
		m2, err := DecodeFull(re)
		if err != nil {
			t.Fatalf("re-encoded bytes do not decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("fixed point broken: %#v vs %#v", m, m2)
		}
	})
}

func BenchmarkEncodeSuzukiToken(b *testing.B) {
	tok := suzukikasami.Token{LN: make([]int64, 180), Q: make([]mutex.ID, 20)}
	env := core.Envelope{Level: 1, Inner: tok}
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Encode(buf[:0], env)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSuzukiToken(b *testing.B) {
	tok := suzukikasami.Token{LN: make([]int64, 180), Q: make([]mutex.ID, 20)}
	buf, err := Encode(nil, core.Envelope{Level: 1, Inner: tok})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFull(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripSmall(b *testing.B) {
	m := core.Envelope{Level: 0, Inner: naimitrehel.Request{Origin: 3}}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Encode(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeFull(buf); err != nil {
			b.Fatal(err)
		}
	}
}
