// Package bad seeds message structs carrying shared mutable state.
package bad

type shared struct{ n int }

type Token struct {
	Owner *shared       // want `field Owner`
	Peers []*shared     // want `field Peers`
	Acks  map[int]bool  // want `field Acks`
	Done  chan struct{} // want `field Done`
	Hook  func()        // want `field Hook`
}

func (Token) Kind() string { return "bad.token" }
func (Token) Size() int    { return 1 }

// meta is impure one level down; Request reaches it through a nested
// struct field.
type meta struct{ owner *shared }

type Request struct {
	Seq  int64
	Meta meta // want `field Meta`
}

func (Request) Kind() string { return "bad.request" }
func (Request) Size() int    { return 16 }
