package trace

import (
	"strings"
	"testing"
	"time"
)

func fixedClock(t time.Duration) func() time.Duration {
	return func() time.Duration { return t }
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Send, 1, 2, "x") // must not panic
	if tr.Events() != nil || tr.Dump() != "" {
		t.Fatal("nil tracer not inert")
	}
}

func TestRecordAndDump(t *testing.T) {
	now := time.Duration(0)
	tr := New(func() time.Duration { return now }, 16)
	tr.Record(Send, 1, 2, "naimi.request")
	now = 5 * time.Millisecond
	tr.Record(Deliver, 1, 2, "naimi.request")
	tr.Record(Acquire, 2, -1, "cs")
	tr.Record(CoordState, 0, -1, "OUT->WAIT_FOR_IN")

	if n := len(tr.Events()); n != 4 {
		t.Fatalf("%d events retained, want 4", n)
	}
	dump := tr.Dump()
	for _, want := range []string{"send", "deliver", "acquire", "coord", "naimi.request", "OUT->WAIT_FOR_IN", "5ms"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	events := tr.Events()
	if events[0].At != 0 || events[1].At != 5*time.Millisecond {
		t.Error("timestamps wrong")
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(fixedClock(0), 3)
	for i := 0; i < 10; i++ {
		tr.Record(Custom, 0, -1, strings.Repeat("x", i+1))
	}
	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("%d events retained, want 3", len(events))
	}
	// The last three recorded have detail lengths 8, 9, 10.
	for i, wantLen := range []int{8, 9, 10} {
		if len(events[i].Detail) != wantLen {
			t.Fatalf("event %d detail %q", i, events[i].Detail)
		}
	}
	if !strings.HasPrefix(tr.Dump(), "(7 earlier events dropped)\n") {
		t.Error("dump does not open with the count of 7 evicted events")
	}
}

// TestFilter: picking one kind out of Events keeps its events in record
// order and finds none of a kind never recorded.
func TestFilter(t *testing.T) {
	tr := New(fixedClock(0), 16)
	tr.Record(Send, 0, 1, "a")
	tr.Record(Acquire, 1, -1, "b")
	tr.Record(Send, 1, 0, "c")
	of := func(kind Kind) []Event {
		var out []Event
		for _, e := range tr.Events() {
			if e.Kind == kind {
				out = append(out, e)
			}
		}
		return out
	}
	sends := of(Send)
	if len(sends) != 2 || sends[0].Detail != "a" || sends[1].Detail != "c" {
		t.Fatalf("sends = %+v", sends)
	}
	if len(of(Release)) != 0 {
		t.Fatal("phantom releases")
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range []Kind{Send, Deliver, Acquire, Release, CoordState, Custom, Kind(99)} {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate name %q", k, s)
		}
		seen[s] = true
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"nil clock":    func() { New(nil, 8) },
		"zero cap":     func() { New(fixedClock(0), 0) },
		"negative cap": func() { New(fixedClock(0), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
