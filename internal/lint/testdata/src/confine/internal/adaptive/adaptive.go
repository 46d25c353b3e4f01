// Package adaptive (corpus) is the simulator-only protocol whose import
// the table confines to run.
package adaptive

type Inner struct{ Gen int64 }
