package des

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"gridmutex/internal/mutex"
)

func TestEmptySimulator(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("fresh simulator at %v, want 0", s.Now())
	}
	if s.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
	s.Run() // must return immediately
	if s.Processed() != 0 {
		t.Fatalf("processed %d events on empty queue", s.Processed())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []Time
	for _, d := range []time.Duration{30, 10, 20, 5, 25} {
		d := d * time.Millisecond
		s.At(d, func() { got = append(got, s.Now()) })
	}
	s.Run()
	want := []Time{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		25 * time.Millisecond, 30 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: position %d has %d", i, v)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var fired Time
	s.At(10*time.Millisecond, func() {
		s.After(5*time.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 15*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 15ms", fired)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	count := 0
	var ping func()
	ping = func() {
		count++
		if count < 10 {
			s.After(time.Millisecond, ping)
		}
	}
	s.After(0, ping)
	s.Run()
	if count != 10 {
		t.Fatalf("chain executed %d times, want 10", count)
	}
	if s.Now() != 9*time.Millisecond {
		t.Fatalf("clock at %v, want 9ms", s.Now())
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	s := New()
	s.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		s.At(5*time.Millisecond, func() {})
	})
	s.Run()
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At(nil) did not panic")
		}
	}()
	New().At(0, nil)
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := New()
	var fired []Time
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		s.At(d, func() { fired = append(fired, s.Now()) })
	}
	s.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events before deadline, want 3", len(fired))
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("clock at %v after RunUntil, want 3s", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("%d events pending, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(time.Hour)
	if s.Now() != time.Hour {
		t.Fatalf("idle clock at %v, want 1h", s.Now())
	}
}

func TestRunForIsRelative(t *testing.T) {
	s := New()
	s.RunUntil(time.Second)
	hit := false
	s.After(500*time.Millisecond, func() { hit = true })
	s.RunFor(400 * time.Millisecond)
	if hit {
		t.Fatal("event fired before its instant")
	}
	if s.Now() != 1400*time.Millisecond {
		t.Fatalf("clock at %v, want 1.4s", s.Now())
	}
	s.RunFor(100 * time.Millisecond)
	if !hit {
		t.Fatal("event did not fire at its instant")
	}
}

// TestClockSaturates: a delay past the largest Time schedules at that
// instant, behind what is already there, instead of wrapping into the past
// (where At panicked), and RunFor stops there too.
func TestClockSaturates(t *testing.T) {
	const end = Time(math.MaxInt64)
	s := New()
	var order []int
	s.At(end-5, func() {
		s.After(end, func() { order = append(order, 2) })
		s.At(end, func() { order = append(order, 1) })
		s.After(10, func() { order = append(order, 3) })
		s.AtDeliver(s.In(end), recorder{&order}, 4, nil)
	})
	s.RunFor(end)
	if s.Now() != end || !slices.Equal(order, []int{2, 1, 3, 4}) {
		t.Fatalf("clock %v, order %v; want %v and [2 1 3 4]", s.Now(), order, end)
	}
	s.RunFor(time.Hour)
	if s.Now() != end {
		t.Fatalf("RunFor past the end moved the clock to %v", s.Now())
	}
	if got := New().In(-time.Second); got != -time.Second {
		t.Fatalf("In(-1s) = %v, want -1s: a negative delay is the caller's error", got)
	}
}

// recorder is a handler that appends its sender to a list.
type recorder struct{ order *[]int }

func (r recorder) Deliver(from mutex.ID, _ mutex.Message) { *r.order = append(*r.order, int(from)) }

func TestRunCappedDetectsLivelock(t *testing.T) {
	s := New()
	var loop func()
	loop = func() { s.After(time.Microsecond, loop) }
	s.After(0, loop)
	err := s.RunCapped(1000)
	if err == nil {
		t.Fatal("RunCapped did not report the livelock")
	}
	if _, ok := err.(MaxEventsExceeded); !ok {
		t.Fatalf("error %T, want MaxEventsExceeded", err)
	}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestRunCappedFinishesUnderBudget(t *testing.T) {
	s := New()
	n := 0
	for i := 0; i < 50; i++ {
		s.At(Time(i)*time.Millisecond, func() { n++ })
	}
	if err := s.RunCapped(1000); err != nil {
		t.Fatalf("RunCapped failed: %v", err)
	}
	if n != 50 {
		t.Fatalf("executed %d events, want 50", n)
	}
}

// TestRunCappedBoundary pins the cap's boundary semantics: the error
// means "the budget ran out with work still pending", so a queue that
// drains on exactly the limit-th event is a clean nil — only a queue
// that still holds events once limit have run is a livelock finding.
func TestRunCappedBoundary(t *testing.T) {
	const events = 10
	for _, tc := range []struct {
		limit   uint64
		wantErr bool
	}{
		{limit: events - 1, wantErr: true},
		{limit: events, wantErr: false},
		{limit: events + 1, wantErr: false},
	} {
		s := New()
		ran := 0
		for i := 0; i < events; i++ {
			s.At(Time(i)*time.Millisecond, func() { ran++ })
		}
		err := s.RunCapped(tc.limit)
		if tc.wantErr {
			if _, ok := err.(MaxEventsExceeded); !ok {
				t.Errorf("limit %d: error %v, want MaxEventsExceeded", tc.limit, err)
			}
			if ran != int(tc.limit) {
				t.Errorf("limit %d: executed %d events before stopping, want %d", tc.limit, ran, tc.limit)
			}
			continue
		}
		if err != nil {
			t.Errorf("limit %d: drained queue reported %v, want nil", tc.limit, err)
		}
		if ran != events {
			t.Errorf("limit %d: executed %d events, want %d", tc.limit, ran, events)
		}
	}
}

func TestReentrantRunPanics(t *testing.T) {
	s := New()
	s.After(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run did not panic")
			}
		}()
		s.Run()
	})
	s.Run()
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the processed count matches the number of scheduled events.
func TestPropertyOrderedExecution(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 500 {
			raw = raw[:500]
		}
		s := New()
		var fired []Time
		for _, r := range raw {
			d := time.Duration(r%1_000_000) * time.Microsecond
			s.At(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return s.Processed() == uint64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: two simulators fed the same schedule execute identically.
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		run := func() []Time {
			rng := rand.New(rand.NewSource(seed))
			s := New()
			var fired []Time
			var spawn func(depth int)
			spawn = func(depth int) {
				fired = append(fired, s.Now())
				if depth < 3 {
					for i := 0; i < 2; i++ {
						s.After(time.Duration(rng.Intn(1000))*time.Microsecond, func() { spawn(depth + 1) })
					}
				}
			}
			for i := 0; i < 10; i++ {
				s.At(time.Duration(rng.Intn(1000))*time.Microsecond, func() { spawn(0) })
			}
			s.Run()
			return fired
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateSchedulingAllocs pins the event queue's allocation
// behavior: once the backing array has grown to the high-water mark,
// scheduling and draining events allocates nothing (events are stored by
// value in the heap slice, not boxed per At call).
func TestSteadyStateSchedulingAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	// Grow the queue to its high-water mark once.
	for j := 0; j < 1024; j++ {
		s.At(s.Now()+Time(j%13)*time.Millisecond, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 1024; j++ {
			s.At(s.Now()+Time(j%13)*time.Millisecond, fn)
		}
		s.Run()
	})
	if allocs > 1 {
		t.Errorf("steady-state schedule+run of 1024 events allocates %.1f times, want ~0", allocs)
	}
}

// TestSlotGrowthAllocs pins how the slot array grows: while the queue fills
// to 10⁵ pending events, the capacities the array passes through, each an
// allocation, sum to at most 2.1 × the final one. Doubling sums to about 2×;
// append's 1.25× growth above 256 elements sums to 4.82×, a chain of
// dead arrays that GOGC 400 never collects before a run ends. Once grown,
// a second fill and drain allocates nothing. Every event is due at the
// current instant, so each fill meets the buckets as the first one left
// them: keys due later sit in buckets chosen by their instant's XOR with
// the clock, which moves between fills.
func TestSlotGrowthAllocs(t *testing.T) {
	const n = 100_000
	s := New()
	fn := func() {}
	sum, last := 0, -1
	for j := 0; j < n; j++ {
		s.At(s.Now(), fn)
		if c := cap(s.queue.slots); c != last {
			sum, last = sum+c, c
		}
	}
	if s.Pending() != n {
		t.Fatalf("%d events pending, want %d", s.Pending(), n)
	}
	if float64(sum) > 2.1*float64(last) {
		t.Errorf("the slot array passed through %d slots of capacity to reach %d: %.2f × the final array, want <= 2.1",
			sum, last, float64(sum)/float64(last))
	}
	s.Run()
	if allocs := testing.AllocsPerRun(1, func() {
		for j := 0; j < n; j++ {
			s.At(s.Now(), fn)
		}
		s.Run()
	}); allocs != 0 {
		t.Errorf("a second fill to %d pending events allocates %.0f times, want 0", n, allocs)
	}
	if c := cap(s.queue.slots); c != last {
		t.Errorf("the slot array grew from %d to %d on a second fill", last, c)
	}
}

// mallocs counts the heap allocations made by one call of the function
// setup returns. MemStats.Mallocs is process-wide, so an allocation of
// another goroutine can land inside the window: the least over five fresh
// setups is the call's own.
func mallocs(setup func() func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		f := setup()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestBucketGrowthAllocs pins how a bucket grows: while one fills to 10⁵
// keys, the capacities it passes through sum to at most 2.1 × the final
// one, where append's 1.25× growth above 256 keys sums to about 4.8 ×.
// Once that bucket has drained, a second bucket fills from 256 keys, where
// append's doubling ends, to 10⁵ without allocating: it takes the drained
// bucket's array.
func TestBucketGrowthAllocs(t *testing.T) {
	const n = 100_000
	fn := func() {}
	var s *Simulator
	fill := func() (sum, last int) {
		s, last = New(), -1
		for j := 0; j < n; j++ {
			s.At(0, fn)
			if c := cap(s.queue.buckets[0]); c != last {
				sum, last = sum+c, c
			}
		}
		return sum, last
	}
	if sum, last := fill(); float64(sum) > 2.1*float64(last) {
		t.Errorf("bucket 0 passed through %d keys of capacity to reach %d: %.2f × the final array, want <= 2.1",
			sum, last, float64(sum)/float64(last))
	}
	if allocs := mallocs(func() func() {
		fill()
		s.Run()
		// The clock stands at 0, so instant 1 selects bucket 1.
		for j := 0; j < 256; j++ {
			s.At(1, fn)
		}
		return func() {
			for j := 256; j < n; j++ {
				s.At(1, fn)
			}
		}
	}); allocs != 0 {
		t.Errorf("filling bucket 1 from 256 to %d keys after bucket 0 drained allocates %d times, want 0", n, allocs)
	}
	if got := len(s.queue.buckets[1]); got != n {
		t.Fatalf("bucket 1 holds %d keys, want %d", got, n)
	}
}

// TestReserveAllocs pins Simulator.Reserve: with the buckets already
// large enough, reserving room for 10⁵ events and scheduling them allocates
// once, the slot array, at the capacity its doubling reaches without
// Reserve. Below 256 slots Reserve leaves the array to append.
func TestReserveAllocs(t *testing.T) {
	const n = 100_000
	fn := func() {}
	doubled := New()
	for j := 0; j < n; j++ {
		doubled.At(0, fn)
	}
	var s *Simulator
	if allocs := mallocs(func() func() {
		s = New()
		s.queue.buckets[0] = make([]eventKey, 0, n)
		return func() {
			s.Reserve(n)
			for j := 0; j < n; j++ {
				s.At(0, fn)
			}
		}
	}); allocs != 1 {
		t.Errorf("Reserve(%d) and %d events allocate %d times, want 1", n, n, allocs)
	}
	if got, want := cap(s.queue.slots), cap(doubled.queue.slots); got != want {
		t.Errorf("the reserved slot array holds %d slots, doubling reaches %d", got, want)
	}
	small := New()
	small.Reserve(200)
	if c := cap(small.queue.slots); c != 0 {
		t.Errorf("Reserve(200) allocated %d slots, want none", c)
	}
}

// TestHeapOrderAfterInterleavedPops stresses the hand-rolled sift
// routines: interleaved pushes and pops must still drain in (at, seq)
// order.
func TestHeapOrderAfterInterleavedPops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	var fired []Time
	record := func() { fired = append(fired, s.Now()) }
	for round := 0; round < 20; round++ {
		for j := 0; j < 50; j++ {
			s.At(s.Now()+time.Duration(rng.Intn(5000))*time.Microsecond, record)
		}
		for j := 0; j < 25; j++ {
			s.Step()
		}
	}
	s.Run()
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatal("events fired out of time order after interleaved pops")
	}
	if got := uint64(len(fired)); s.Processed() != got || got != 20*50 {
		t.Fatalf("processed %d events, fired %d, want %d", s.Processed(), got, 20*50)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(Time(j%17)*time.Millisecond, func() {})
		}
		s.Run()
	}
}

// nopHandler discards deliveries.
type nopHandler struct{}

func (nopHandler) Deliver(mutex.ID, mutex.Message) {}

// BenchmarkIdleTimersUnderTraffic is the shape of every large run in
// isolation: 9×10⁴ think timers pending (100 h away, which no b.N
// reaches: one firing would take a Step from the hold model and grow the
// traffic) under 64 messages in flight, each op one AtDeliver 1–16 ms
// ahead and one Step. ns/op is what a delivery pays for the idle timers
// it shares a queue with; moves/op is the same thing counted.
func BenchmarkIdleTimersUnderTraffic(b *testing.B) {
	s := New()
	for j := 0; j < 90_000; j++ {
		s.At(100*time.Hour+Time(j)*time.Microsecond, func() { b.Fatal("an idle timer fired") })
	}
	msg := mutex.Message(testMsg{1})
	rng := rand.New(rand.NewSource(1))
	hold := func() {
		s.AtDeliver(s.Now()+time.Millisecond+Time(rng.Intn(15_000))*time.Microsecond, nopHandler{}, 0, msg)
	}
	for j := 0; j < 64; j++ {
		hold()
	}
	before := s.QueueStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hold()
		s.Step()
	}
	after := s.QueueStats()
	b.ReportMetric(float64(after.Moves-before.Moves)/float64(b.N), "moves/op")
}

// deliverRec records typed deliveries for AtDeliver tests.
type deliverRec struct {
	s   *Simulator
	got []struct {
		at   Time
		from mutex.ID
		m    mutex.Message
	}
}

func (d *deliverRec) Deliver(from mutex.ID, m mutex.Message) {
	d.got = append(d.got, struct {
		at   Time
		from mutex.ID
		m    mutex.Message
	}{d.s.Now(), from, m})
}

type testMsg struct{ n int }

func (testMsg) Kind() string { return "test" }
func (testMsg) Size() int    { return 8 }

// TestAtDeliverOrderingWithClosures interleaves typed delivery events with
// closure events at mixed instants: both variants must drain in (at, seq)
// order through the same queue.
func TestAtDeliverOrderingWithClosures(t *testing.T) {
	s := New()
	rec := &deliverRec{s: s}
	var order []string
	s.At(2*time.Millisecond, func() { order = append(order, "fn@2") })
	s.AtDeliver(time.Millisecond, rec, 7, testMsg{1})
	s.AtDeliver(2*time.Millisecond, rec, 8, testMsg{2})              // same instant as fn@2, scheduled after
	s.At(time.Millisecond, func() { order = append(order, "fn@1") }) // same instant as first delivery, after
	s.Run()
	if len(rec.got) != 2 {
		t.Fatalf("deliveries %d, want 2", len(rec.got))
	}
	if rec.got[0].at != time.Millisecond || rec.got[0].from != 7 || rec.got[0].m.(testMsg).n != 1 {
		t.Fatalf("first delivery %+v", rec.got[0])
	}
	if rec.got[1].at != 2*time.Millisecond || rec.got[1].from != 8 {
		t.Fatalf("second delivery %+v", rec.got[1])
	}
	if len(order) != 2 || order[0] != "fn@1" || order[1] != "fn@2" {
		t.Fatalf("closure order %v, want [fn@1 fn@2]", order)
	}
	if s.Processed() != 4 {
		t.Fatalf("processed %d, want 4", s.Processed())
	}
}

// TestAtDeliverPanics: nil handlers and past instants are never accepted.
func TestAtDeliverPanics(t *testing.T) {
	s := New()
	s.At(time.Millisecond, func() {})
	s.Run() // now = 1ms
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	rec := &deliverRec{s: s}
	expectPanic("nil handler", func() { s.AtDeliver(2*time.Millisecond, nil, 0, testMsg{}) })
	expectPanic("past instant", func() { s.AtDeliver(0, rec, 0, testMsg{}) })
}

// TestAtDeliverSteadyStateAllocs pins the typed delivery variant: unlike a
// closure capturing (handler, from, msg), AtDeliver stores everything by
// value in the queue slice, so the steady state allocates nothing.
func TestAtDeliverSteadyStateAllocs(t *testing.T) {
	s := New()
	rec := &deliverRec{s: s}
	rec.got = make([]struct {
		at   Time
		from mutex.ID
		m    mutex.Message
	}, 0, 4096)
	msg := mutex.Message(testMsg{1}) // box once, outside the measured loop
	for j := 0; j < 1024; j++ {
		s.AtDeliver(s.Now()+Time(j%13)*time.Millisecond, rec, 0, msg)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		rec.got = rec.got[:0]
		for j := 0; j < 1024; j++ {
			s.AtDeliver(s.Now()+Time(j%13)*time.Millisecond, rec, 0, msg)
		}
		s.Run()
	})
	if allocs > 1 {
		t.Errorf("steady-state AtDeliver of 1024 messages allocates %.1f times, want ~0", allocs)
	}
}

// fireRec is a Handler that reports a typed delivery's id (carried in the
// message) to fire.
type fireRec struct{ fire func(id int) }

func (f fireRec) Deliver(_ mutex.ID, m mutex.Message) { f.fire(m.(testMsg).n) }

// TestPropertyTiersMatchReferenceSort is the differential test of the
// event queue: random mixes of At, After(0) and AtDeliver, with delays on
// both sides of every bucket boundary, scheduled before and during the run,
// must fire in the order of a reference sort by (at, scheduling order) —
// the single total order the queue promises whatever bucket holds a key.
// Two drivers: one Run, and RunUntil to instants between events with pushes
// from outside the run, below the pending minimum (invariant 3: a peek does
// not move last).
func TestPropertyTiersMatchReferenceSort(t *testing.T) {
	delays := []time.Duration{
		0, time.Nanosecond, 3 * time.Millisecond, 47 * time.Millisecond,
		time.Second, 2 * time.Minute, 7 * time.Minute,
	}
	for k := 1; k <= 40; k++ {
		delays = append(delays, 1<<k-1, 1<<k, 1<<k+1)
	}
	f := func(seed int64, stepwise bool) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		type ev struct {
			at Time
			id int
		}
		var want []ev
		var got []int
		var schedule func()
		fire := func(id int) {
			if s.Now() != want[id].at {
				t.Errorf("seed %d: event %d fired at %v, scheduled for %v", seed, id, s.Now(), want[id].at)
			}
			got = append(got, id)
			for k := rng.Intn(3); k > 0 && len(want) < 600; k-- {
				schedule()
			}
		}
		schedule = func() {
			id := len(want)
			d := delays[rng.Intn(len(delays))]
			switch rng.Intn(3) {
			case 0:
				s.At(s.Now()+d, func() { fire(id) })
			case 1:
				d = 0
				s.After(0, func() { fire(id) })
			default:
				s.AtDeliver(s.Now()+d, fireRec{fire}, 0, testMsg{id})
			}
			want = append(want, ev{s.Now() + d, id})
		}
		for i := 0; i < 200; i++ {
			schedule()
		}
		if stepwise {
			for s.Pending() > 0 {
				s.RunFor(delays[rng.Intn(len(delays))])
				for k := rng.Intn(3); k > 0 && len(want) < 600; k-- {
					schedule()
				}
			}
		} else {
			s.Run()
		}
		// ids are scheduling order: a stable sort by instant is the order
		// the queue promises.
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) || s.Pending() != 0 {
			return false
		}
		for i := range want {
			if got[i] != want[i].id {
				return false
			}
		}
		return s.QueueStats().Pushes == uint64(len(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.4}); err != nil {
		t.Fatal(err)
	}
}

// TestBucketsStayInPushOrder is the white-box check of invariants 1 and 2:
// after each of 10⁴ mixed operations every pending key sits in the bucket
// its instant and last select, no key is before last, last is not ahead of
// the clock, and every bucket holds its keys in scheduling order (the ids
// the payloads carry).
func TestBucketsStayInPushOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New()
	q := &s.queue
	next := 0
	for op := 0; op < 10_000; op++ {
		switch r := rng.Intn(8); {
		case r < 4:
			d := Time(0)
			if rng.Intn(4) > 0 {
				d = Time(1) << rng.Intn(36)
				d += Time(rng.Int63n(int64(d)))
			}
			s.AtDeliver(s.Now()+d, nopHandler{}, 0, testMsg{next})
			next++
		case r < 7:
			s.Step()
		default:
			s.RunFor(Time(rng.Intn(1 << 20)))
		}
		if q.last > s.Now() {
			t.Fatalf("op %d: last %v is ahead of the clock %v", op, q.last, s.Now())
		}
		pending := 0
		for b, keys := range q.buckets {
			if (q.mask>>b&1 == 1) != (len(keys) > 0) {
				t.Fatalf("op %d: mask bit %d is %d over %d keys", op, b, q.mask>>b&1, len(keys))
			}
			if b == 0 && len(keys) > 0 {
				keys = keys[q.head:]
			}
			pending += len(keys)
			prev := -1
			for _, k := range keys {
				if k.at < q.last || bits.Len64(uint64(k.at)^uint64(q.last)) != b {
					t.Fatalf("op %d: key at %v in bucket %d under last %v", op, k.at, b, q.last)
				}
				id := q.slots[k.slot].msg.(testMsg).n
				if id <= prev {
					t.Fatalf("op %d: bucket %d holds id %d after id %d", op, b, id, prev)
				}
				prev = id
			}
		}
		if pending != s.Pending() {
			t.Fatalf("op %d: buckets hold %d keys, Pending() = %d", op, pending, s.Pending())
		}
	}
}

// TestHandlerSchedulesIntoItsOwnSlot pins what dispatching from the slot
// needs: the popped slot is already free, so a delivery handler's first
// push takes it over, and scheduling more events than the slot array holds
// reallocates it under the running handler. The handler must still see its
// own sender and message, the events it schedules must fire with theirs in
// (at, push) order, and the closure written into the slot the delivery
// used must run as a closure, not as that delivery again.
func TestHandlerSchedulesIntoItsOwnSlot(t *testing.T) {
	s := New()
	// An event as it fires: its id, sender (-1 for a closure) and instant.
	type ev struct {
		id   int
		from mutex.ID
		at   Time
	}
	var got, want []ev
	grew := false
	var h fireHandler
	h = func(from mutex.ID, m mutex.Message) {
		got = append(got, ev{m.(testMsg).n, from, s.Now()})
		if len(got) > 1 {
			return
		}
		slot := s.queue.free - 1 // the one being dispatched
		c := cap(s.queue.slots)
		for id := 1; id <= c+1; id++ {
			at := s.Now() + Time(id%3)*time.Millisecond
			if id%2 == 1 {
				s.At(at, func() { got = append(got, ev{id, -1, s.Now()}) })
				want = append(want, ev{id, -1, at})
			} else {
				s.AtDeliver(at, h, mutex.ID(100+id), testMsg{id})
				want = append(want, ev{id, mutex.ID(100 + id), at})
			}
			if id == 1 && s.queue.slots[slot].fn == nil {
				t.Fatal("the handler's first push did not take over the slot it was dispatched from")
			}
		}
		grew = cap(s.queue.slots) > c
	}
	for j := 0; j < 3; j++ { // give the slot array some idle capacity
		s.After(0, func() {})
	}
	s.Run()
	s.AtDeliver(time.Millisecond, h, 7, testMsg{0})
	s.Run()

	if !grew {
		t.Fatal("the handler's pushes did not reallocate the slot array")
	}
	// want is in push order: a stable sort by instant is the firing order.
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	want = append([]ev{{0, 7, time.Millisecond}}, want...)
	if len(got) != len(want) {
		t.Fatalf("fired %+v, want %+v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("event %d fired as %+v, want %+v (all: %+v)", k, got[k], want[k], got)
		}
	}
}

// fireHandler is a Handler made of a function.
type fireHandler func(mutex.ID, mutex.Message)

func (f fireHandler) Deliver(from mutex.ID, m mutex.Message) { f(from, m) }

// TestSameInstantFIFOAcrossTiers: an event pushed for instant T an hour
// ahead and, a nanosecond before T, two more pushed for the same T fire in
// push order — the three meet in one bucket, in the order they were pushed.
func TestSameInstantFIFOAcrossTiers(t *testing.T) {
	const T = time.Hour
	s := New()
	var order []string
	s.At(T, func() { order = append(order, "far") })
	s.At(T-time.Nanosecond, func() {
		s.At(T, func() { order = append(order, "near") })
		s.AtDeliver(T, fireRec{func(int) { order = append(order, "near-deliver") }}, 0, testMsg{})
	})
	s.Run()
	if len(order) != 3 || order[0] != "far" || order[1] != "near" || order[2] != "near-deliver" {
		t.Fatalf("same-instant events pushed an hour and a nanosecond ahead fired as %v, want [far near near-deliver]", order)
	}
}

// TestRunBoundsReadBothTiers: RunUntil and RunFor peek at, Pending counts
// and RunCapped counts events both near to and far from the clock.
func TestRunBoundsReadBothTiers(t *testing.T) {
	s := New()
	fired := 0
	s.At(5*time.Second, func() { fired++ }) // the only event, and it is far
	s.RunUntil(10 * time.Second)
	if fired != 1 || s.Now() != 10*time.Second {
		t.Fatalf("RunUntil past a far-only event: fired %d, clock %v", fired, s.Now())
	}

	s.After(500*time.Millisecond, func() { fired++ }) // near, beyond the deadline
	s.After(time.Minute, func() { fired++ })          // far
	s.RunFor(100 * time.Millisecond)
	if fired != 1 || s.Pending() != 2 || s.Now() != 10100*time.Millisecond {
		t.Fatalf("RunFor short of a near event: fired %d, pending %d, clock %v", fired, s.Pending(), s.Now())
	}
	s.RunFor(time.Second) // takes the near one, leaves the far one
	if fired != 2 || s.Pending() != 1 {
		t.Fatalf("RunFor over the near event: fired %d, pending %d", fired, s.Pending())
	}
	s.Run()

	for i := 0; i < 5; i++ {
		s.After(Time(i)*time.Millisecond, func() { fired++ })
		s.After(time.Hour+Time(i), func() { fired++ })
	}
	fired = 0
	if _, ok := s.RunCapped(7).(MaxEventsExceeded); !ok || fired != 7 || s.Pending() != 3 {
		t.Fatalf("RunCapped(7) over 5 near + 5 far events: fired %d, pending %d", fired, s.Pending())
	}
	if err := s.RunCapped(3); err != nil || fired != 10 {
		t.Fatalf("RunCapped(3) over the last 3 far events: %v, fired %d", err, fired)
	}
	if q := s.QueueStats(); q.Pushes != 13 || q.HighWater != 10 {
		t.Fatalf("queue stats %+v, want 13 pushes and a high water of 10", q)
	}
}

// TestTwoTierSteadyStateAllocs is the allocation pin with far pushes in
// the traffic: every bucket, like the slot array, stops growing once it
// has held the most keys the schedule ever puts in it.
func TestTwoTierSteadyStateAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	msg := mutex.Message(testMsg{1})
	round := func() {
		for j := 0; j < 1024; j++ {
			d := Time(j%13) * time.Millisecond
			if j%8 == 0 {
				d += 2 * time.Second
			}
			if j%2 == 0 {
				s.At(s.Now()+d, fn)
			} else {
				s.AtDeliver(s.Now()+d, nopHandler{}, 0, msg)
			}
		}
		s.Run()
	}
	// Which buckets a round fills depends on the clock's bits, so rounds
	// differ: warm up until no bucket grows any more.
	for i := 0; i < 200; i++ {
		round()
	}
	before := s.QueueStats().Pushes
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("steady-state schedule+run of 1024 events near and far allocates %.2f times, want 0", allocs)
	}
	if pushes := s.QueueStats().Pushes - before; pushes != 101*1024 {
		t.Errorf("%d pushes in the measured rounds, want 1024 a round", pushes)
	}
}

// TestClosuresCountsAtOnly: QueueStats.Closures counts the events scheduled
// with At and After, and typed events from AtDeliver are not among them.
func TestClosuresCountsAtOnly(t *testing.T) {
	s := New()
	fn := func() {}
	msg := mutex.Message(testMsg{1})
	s.At(time.Millisecond, fn)
	s.After(2*time.Millisecond, fn)
	for i := 0; i < 3; i++ {
		s.AtDeliver(Time(i)*time.Millisecond, nopHandler{}, 0, msg)
	}
	s.Run()
	s.After(time.Millisecond, fn)
	s.Run()
	if q := s.QueueStats(); q.Closures != 3 || q.Pushes != 6 {
		t.Fatalf("queue stats %+v, want 3 closures of 6 pushes", q)
	}
}
