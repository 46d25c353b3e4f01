// Package bad seeds the lock misuse patterns the analyzer must catch.
package bad

import "sync"

type box struct {
	mu sync.Mutex
	ch chan int
}

// sendBeforeUnlock sends with the lock still held.
func (b *box) sendBeforeUnlock() {
	b.mu.Lock()
	b.ch <- 1 // want `channel send while holding mutex b\.mu`
	b.mu.Unlock()
}

// sendUnderDefer holds the mutex (via defer) across a channel send.
func (b *box) sendUnderDefer() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 2 // want `channel send while holding mutex b\.mu`
}

// sendInSelect sends from a select case while holding the mutex.
func (b *box) sendInSelect() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.ch <- 3: // want `channel send while holding mutex b\.mu`
	default:
	}
}
