// Package simnet (corpus) declares two confined symbols and uses one of
// them itself: a package may always use its own symbols.
package simnet

type Options struct{ KindCounts bool }

type Network struct{ opts Options }

func New(opts Options) *Network {
	if opts.KindCounts {
		opts.KindCounts = false
	}
	return &Network{opts: opts}
}
