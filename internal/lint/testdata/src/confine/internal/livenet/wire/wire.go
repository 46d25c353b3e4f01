// Package wire (corpus) encodes what a live deployment sends, which the
// adaptive protocol is not: importing it is a finding.
package wire

import "confine/internal/adaptive" // want `internal/adaptive used outside \[internal/run\]`

var _ = adaptive.Inner{}
