// Package workload (corpus) declares a confined method.
package workload

type Record struct{ ID int }

type Runner struct{ records []Record }

func NewRunner() *Runner { return &Runner{} }

func (r *Runner) Records() []Record { return r.records }
