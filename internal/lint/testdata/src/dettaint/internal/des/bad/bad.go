// Package bad seeds every class of DES nondeterminism the analyzer must
// catch.
package bad

import (
	"math/rand"
	"time"
)

type state struct {
	acks map[int]bool
	out  []int
}

func (s *state) handle(send func(to int)) {
	go s.flush()                  // want `go statement`
	deadline := time.Now()        // want `time\.Now reads the wall clock`
	_ = deadline
	time.Sleep(time.Millisecond)  // want `time\.Sleep blocks on the wall clock`
	if rand.Intn(2) == 0 {        // want `math/rand\.Intn uses the global generator`
		return
	}
	for to := range s.acks { // want `iteration over map`
		send(to)
	}
}

// collectNoSort gathers keys but never sorts them: order leaks.
func (s *state) collectNoSort() {
	for k := range s.acks { // want `iteration over map`
		s.out = append(s.out, k)
	}
}

func (s *state) flush() {}

func (s *state) wait(ch chan int) {
	select { // want `select statement`
	case <-ch:
	default:
	}
}
