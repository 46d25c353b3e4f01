// Command gridbench (corpus) carries a worker count, which only the
// harness and the benchmark may set.
package main

import "confine/internal/harness"

var quick = harness.Scale{Workers: 1} // want `internal/harness.Scale.Workers used outside \[internal/harness bench\]`

func main() { _ = quick }
