// Package good holds pure messages and non-message structs that may
// legally hold anything: none of this may be flagged.
package good

type ID int32

// Token carries plain value slices, like Suzuki–Kasami's LN/Q arrays.
type Token struct {
	LN []int64
	Q  []ID
}

func (Token) Kind() string { return "good.token" }

// node is ordinary process state, not a message: impure fields are fine.
type node struct {
	peers map[ID]bool
	next  *node
	stop  chan struct{}
}

// Message mirrors the mutex.Message contract.
type Message interface {
	Kind() string
}

// Inner wraps a payload behind an interface, the sanctioned way to nest
// messages.
type Inner struct {
	Gen int64
	M   Message
}

func (i Inner) Kind() string { return i.M.Kind() }
