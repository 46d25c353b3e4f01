// Package stats (corpus) declares a confined field.
package stats

type Accumulator struct{ Sketch bool }
