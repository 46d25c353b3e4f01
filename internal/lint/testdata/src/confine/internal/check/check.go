// Package check (corpus) lacks the NewMonitor its table row names, which
// is itself a finding: a row naming nothing confines nothing.
package check

func NewMonitorWithClock() {}
