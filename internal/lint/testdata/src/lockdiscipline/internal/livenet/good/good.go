// Package good holds the corrected counterparts of the bad corpus: every
// construct here must pass lockdiscipline without a diagnostic.
package good

import "sync"

type box struct {
	mu sync.Mutex
	ch chan int
}

// balanced releases where it acquires.
func (b *box) balanced() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return 1
}

// sendAfterUnlock snapshots state under the lock and sends outside it.
func (b *box) sendAfterUnlock() {
	b.mu.Lock()
	v := 1
	b.mu.Unlock()
	b.ch <- v
}

// earlyReturn releases on every path.
func (b *box) earlyReturn(stop bool) {
	b.mu.Lock()
	if stop {
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
}

// rlocked pairs RLock with RUnlock.
type rbox struct {
	mu sync.RWMutex
	n  int
}

func (b *rbox) rlocked() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.n
}
