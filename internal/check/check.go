// Package check implements runtime verification of the mutual exclusion
// properties: safety (at most one process in the critical section at any
// virtual instant) and bookkeeping that lets callers assert liveness (every
// request eventually granted).
package check

import (
	"fmt"
	"time"

	"gridmutex/internal/des"
	"gridmutex/internal/mutex"
)

// Clock is the time source a Monitor stamps its observations with. The DES
// simulator implements it; schedule exploration (internal/explore)
// substitutes a schedule-step counter so violations name the step they
// occurred at.
type Clock interface {
	Now() des.Time
}

// Monitor observes critical section entries and exits in virtual time.
// It is driven from DES event handlers, which run serially, so it needs no
// locking.
type Monitor struct {
	clock      Clock
	sched      *des.Simulator // non-nil only for simulator-backed monitors
	current    mutex.ID
	since      des.Time
	entries    int64
	exits      int64
	violations []string
	// MaxViolations bounds recording so a broken run does not hoard
	// memory; further violations are only counted.
	MaxViolations int
	suppressed    int64

	// Crash-recovery accounting (see Crashed and BeginEpoch).
	crashes    int64
	crashExits int64
	epochs     int64
	crashAt    des.Time
	crashOpen  bool
	latencies  []time.Duration

	// Restart-rejoin accounting (see Restarted and Rejoined).
	restarts   int64
	rejoins    int64
	restartAt  map[mutex.ID]des.Time
	rejoinLats []time.Duration
}

// NewMonitor returns a monitor bound to the simulator's clock.
func NewMonitor(sim *des.Simulator) *Monitor {
	return &Monitor{clock: sim, sched: sim, current: mutex.None, MaxViolations: 64}
}

// NewMonitorWithClock returns a monitor stamping observations with an
// arbitrary clock. WatchLiveness is unavailable on such a monitor (it needs
// a simulator to schedule its ticks); model-checking drivers use
// StepLiveness instead.
func NewMonitorWithClock(c Clock) *Monitor {
	if c == nil {
		panic("check: nil clock")
	}
	return &Monitor{clock: c, current: mutex.None, MaxViolations: 64}
}

// Enter records that id entered the critical section now.
func (m *Monitor) Enter(id mutex.ID) {
	if m.current != mutex.None {
		m.violate("safety: %d entered CS at %v while %d has held it since %v",
			id, m.clock.Now(), m.current, m.since)
	}
	m.current = id
	m.since = m.clock.Now()
	m.entries++
}

// Exit records that id left the critical section now.
func (m *Monitor) Exit(id mutex.ID) {
	if m.current != id {
		m.violate("protocol: %d exited CS at %v but holder is %d", id, m.clock.Now(), m.current)
	}
	m.current = mutex.None
	m.exits++
}

func (m *Monitor) violate(format string, args ...any) {
	if len(m.violations) >= m.MaxViolations {
		m.suppressed++
		return
	}
	m.violations = append(m.violations, fmt.Sprintf(format, args...))
}

// Reportf records an externally detected property violation through the
// monitor's accounting — the hook model-checking drivers
// (internal/explore) use so every violation, theirs or the monitor's own,
// surfaces through one Violations list.
func (m *Monitor) Reportf(format string, args ...any) { m.violate(format, args...) }

// Violations returns the recorded property violations.
func (m *Monitor) Violations() []string {
	out := append([]string(nil), m.violations...)
	if m.suppressed > 0 {
		out = append(out, fmt.Sprintf("... and %d more suppressed violations", m.suppressed))
	}
	return out
}

// Ok reports whether no violation occurred.
func (m *Monitor) Ok() bool { return len(m.violations) == 0 && m.suppressed == 0 }

// Entries returns the number of recorded critical section entries.
func (m *Monitor) Entries() int64 { return m.entries }

// Exits returns the number of recorded critical section exits.
func (m *Monitor) Exits() int64 { return m.exits }

// InCS returns the process currently inside the critical section, or
// mutex.None.
func (m *Monitor) InCS() mutex.ID { return m.current }

// Crashed records that id fail-stopped now. If id was inside the critical
// section the monitor vacates it: a crashed holder leaves the CS by dying,
// and quiescence accounting tracks the missing Exit separately as a crash
// exit. Crashed also opens a recovery-latency sample that the next
// BeginEpoch closes.
func (m *Monitor) Crashed(id mutex.ID) {
	m.crashes++
	if m.current == id {
		m.current = mutex.None
		m.crashExits++
	}
	m.crashAt = m.clock.Now()
	m.crashOpen = true
}

// BeginEpoch records a token-regeneration epoch for the named group.
// Safety inside the new epoch is still asserted by Enter/Exit — the crashed
// holder was vacated by Crashed, so two live processes overlapping in the
// CS trips the safety check exactly as without recovery; regeneration never
// legitimizes a double token. The first epoch after a crash closes the
// recovery-latency sample opened by Crashed.
func (m *Monitor) BeginEpoch(group string) {
	_ = group // groups are distinguished by the caller's tracing, not here
	m.epochs++
	if m.crashOpen {
		m.latencies = append(m.latencies, time.Duration(m.clock.Now()-m.crashAt))
		m.crashOpen = false
	}
}

// Restarted records that id's node came back up now. The restarted
// process is amnesiac and not yet a member of its groups, so nothing in
// the entry/exit accounting changes; Restarted opens a rejoin-latency
// sample that Rejoined closes. Post-rejoin critical-section entries are
// ordinary acquires — the crashed holder was already vacated by Crashed,
// so re-entry needs no special casing.
func (m *Monitor) Restarted(id mutex.ID) {
	m.restarts++
	if m.restartAt == nil {
		m.restartAt = make(map[mutex.ID]des.Time)
	}
	m.restartAt[id] = m.clock.Now()
}

// Rejoined records that a restarted id was re-admitted to its group —
// closing the rejoin-latency sample opened by Restarted. Extra rejoin
// notifications (the same process rejoins several groups) are counted
// but sample only the first, which is the one that makes the process
// serviceable again.
func (m *Monitor) Rejoined(id mutex.ID) {
	m.rejoins++
	if at, ok := m.restartAt[id]; ok {
		m.rejoinLats = append(m.rejoinLats, time.Duration(m.clock.Now()-at))
		delete(m.restartAt, id)
	}
}

// Restarts returns how many node restarts were recorded.
func (m *Monitor) Restarts() int64 { return m.restarts }

// Rejoins returns how many group re-admissions were recorded.
func (m *Monitor) Rejoins() int64 { return m.rejoins }

// RejoinLatencies returns one restart-to-readmission delay per restarted
// process that rejoined, in rejoin order.
func (m *Monitor) RejoinLatencies() []time.Duration {
	return append([]time.Duration(nil), m.rejoinLats...)
}

// Crashes returns how many crashes were recorded.
func (m *Monitor) Crashes() int64 { return m.crashes }

// CrashExits returns how many critical sections ended by their holder
// crashing rather than exiting.
func (m *Monitor) CrashExits() int64 { return m.crashExits }

// Epochs returns how many token-regeneration epochs were recorded.
func (m *Monitor) Epochs() int64 { return m.epochs }

// RecoveryLatencies returns one crash-to-first-regeneration delay per
// crash that was followed by an epoch, in crash order.
func (m *Monitor) RecoveryLatencies() []time.Duration {
	return append([]time.Duration(nil), m.latencies...)
}

// AssertQuiescent records a violation unless the critical section is free
// and entries match exits — call it after a run drains. Critical sections
// ended by a crash (see Crashed) count as exited: the holder left by dying.
func (m *Monitor) AssertQuiescent() {
	if m.current != mutex.None {
		m.violate("quiescence: %d still in CS at %v", m.current, m.clock.Now())
	}
	if m.entries != m.exits+m.crashExits {
		m.violate("quiescence: %d entries but %d exits and %d crash exits", m.entries, m.exits, m.crashExits)
	}
}

// WatchLiveness installs a stall detector. Every interval of virtual time
// it samples waiting() — processes with an ungranted request — and flags a
// liveness violation when a full interval passes with someone waiting at
// both of its ends and not a single critical section entry in between:
// grants normally occur within fractions of an interval, so system-wide
// silence across one while requests wait means deadlock. (Requiring
// waiting>0 at both ends keeps a request that was issued just before a
// tick and granted just after it from counting as silence.)
//
// The watchdog stops rescheduling once done() reports true or a stall has
// been recorded, so it never keeps an otherwise-drained simulation alive.
func (m *Monitor) WatchLiveness(waiting func() int, done func() bool, interval time.Duration) {
	if waiting == nil || done == nil {
		panic("check: nil watchdog callback")
	}
	if interval <= 0 {
		panic("check: non-positive watchdog interval")
	}
	if m.sched == nil {
		panic("check: WatchLiveness needs a simulator-backed monitor (use StepLiveness with NewMonitorWithClock)")
	}
	var tick func()
	lastEntries := m.entries
	armed := false
	tick = func() {
		if done() {
			return // workload complete; let the simulation drain
		}
		w := waiting()
		if armed && w > 0 && m.entries == lastEntries {
			m.violate("liveness: %d requests waiting but no CS entry between %v and %v",
				w, des.Time(m.clock.Now())-interval, m.clock.Now())
			return
		}
		armed = w > 0
		lastEntries = m.entries
		m.sched.After(interval, tick)
	}
	m.sched.After(interval, tick)
}

// StepLiveness is the bounded-liveness assertion of schedule exploration
// (internal/explore): once the system has no messages in flight, every
// waiting request must be granted within K further schedule steps. With no
// message pending, the only remaining transitions are local (requests,
// releases and the grants they cascade), of which a finite bounded number
// exists between any two deliveries — K consecutive quiet steps with a
// request still waiting therefore mean the request will never be granted
// (a lost token, a forgotten queue entry).
//
// Feed every schedule step to Step; a critical section entry or a message
// appearing in flight resets the counter. The first trip records one
// violation on the monitor and latches.
type StepLiveness struct {
	m           *Monitor
	k           int
	lastEntries int64
	quiet       int
	tripped     bool
}

// NewStepLiveness returns a step-bounded liveness assertion recording
// through m. k is the number of quiet steps tolerated.
func NewStepLiveness(m *Monitor, k int) *StepLiveness {
	if m == nil {
		panic("check: nil monitor")
	}
	if k <= 0 {
		panic("check: non-positive liveness bound")
	}
	return &StepLiveness{m: m, k: k}
}

// Step records one schedule step with the current number of waiting
// requests and in-flight messages.
func (s *StepLiveness) Step(waiting, inflight int) {
	if s.tripped {
		return
	}
	if s.m.Entries() != s.lastEntries {
		s.lastEntries = s.m.Entries()
		s.quiet = 0
	}
	if waiting == 0 || inflight > 0 {
		s.quiet = 0
		return
	}
	s.quiet++
	if s.quiet > s.k {
		s.tripped = true
		s.m.Reportf("liveness: %d requests waiting with no message in flight for %d schedule steps (bound %d)",
			waiting, s.quiet, s.k)
	}
}
