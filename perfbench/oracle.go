package main

import (
	"fmt"
	"slices"

	"flint/internal/exec"
	"flint/internal/rdd"
)

// oracle checks each job's output against rdd.CollectLocal of the same
// target, the engine-free reference evaluator. Rows are compared as
// multisets of their printed form, so partition-internal order does not
// matter but every value must match exactly.
//
// Every iteration of a run builds the same lineage from the same seed,
// so the reference output of a run's i-th job is computed once, from
// the first iteration that reaches it, and reused.
type oracle struct {
	refs map[int][]string
}

func newOracle() *oracle { return &oracle{refs: map[int][]string{}} }

// check reports whether the i-th job of an iteration had output to check
// and, if so, whether it failed or differed from the reference.
func (o *oracle) check(i int, j jobRun) (checked bool, err error) {
	if j.err != nil {
		return true, j.err
	}
	if j.action != exec.ActionCollect && j.action != exec.ActionCount {
		return false, nil
	}
	want, ok := o.refs[i]
	if !ok {
		want = canon(rdd.CollectLocal(j.target))
		o.refs[i] = want
	}
	if j.action == exec.ActionCount {
		if j.res.Count != int64(len(want)) {
			return true, fmt.Errorf("%s: count %d, reference %d", j.target, j.res.Count, len(want))
		}
		return true, nil
	}
	if got := canon(j.res.Rows); !slices.Equal(want, got) {
		return true, fmt.Errorf("%s: %d rows differ from the reference's %d", j.target, len(got), len(want))
	}
	return true, nil
}

func canon(rows []rdd.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	slices.Sort(out)
	return out
}
