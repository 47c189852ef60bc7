//lint:hot column-batch bucketing runs per cell per task
package exec

// Column-batch map-side bucketing: the batch plane of parbucket.go.
//
// When a shuffle dependency is Columnar, a map task's output buckets are
// ColBatches: typed batches scatter their key/value columns directly
// (rdd.BucketBatch and its range primitives, chunked here across idle
// workers exactly like parallelBuckets), and every bucket is then
// finalized — batch combine (CombineCol) for reduce deps, keys-only
// extraction for group/join/partition deps — so what enters the shuffle
// tracker is columns. Bucket b holds the same rows in the same order as
// EvalLocal's row bucket b for any helper count (the chunk roll-up
// argument in parbucket.go applies unchanged); the combine/extract step
// preserves row values, so the engine's results equal the row plane's.

import (
	"sync/atomic"

	"flint/internal/rdd"
)

// bucketAndCombineBatch buckets one map task's output batch and applies
// the map-side combine, on the column plane when the dep allows it.
// Output is value-identical to bucketAndCombine over the boxed rows.
func (e *Engine) bucketAndCombineBatch(dep *rdd.ShuffleDep, b *rdd.ColBatch) []*rdd.ColBatch {
	if !dep.Columnar || dep.Partitioner != nil {
		// Row plane: classic bucketing + Combine, buckets wrapped
		// tail-only (zero cost) for the batch-typed tracker.
		buckets := e.bucketAndCombine(dep, b.Rows())
		out := make([]*rdd.ColBatch, len(buckets))
		for i, rows := range buckets {
			out[i] = rdd.WrapRows(rows)
		}
		return out
	}
	n := b.Len()
	helpers := e.recruitHelpers(n)
	var buckets []*rdd.ColBatch
	if b.HasCols() {
		buckets = parallelBucketBatch(dep, b, helpers+1)
	} else {
		// Tail-only batch (source rows, a row-plane operator's output):
		// bucket the boxed rows, then columnize per bucket below — this
		// is the ingress point where rows become columns.
		rows := b.Rows()
		var rowBuckets [][]rdd.Row
		if helpers == 0 {
			rowBuckets = dep.BucketRows(rows)
		} else {
			rowBuckets = parallelBuckets(dep, rows, helpers+1)
		}
		buckets = make([]*rdd.ColBatch, len(rowBuckets))
		for i, rb := range rowBuckets {
			buckets[i] = rdd.WrapRows(rb)
		}
	}
	finalizeBatchBuckets(dep, buckets, helpers+1)
	e.releaseHelpers(helpers)
	return buckets
}

// parallelBucketBatch is dep.BucketBatch chunked across parts goroutines
// (parts >= 1; parts == 1 degenerates to the serial composition). Same
// roll-up scheme as parallelBuckets: per-chunk counts become per-chunk
// write cursors into disjoint (chunk, bucket) column segments. The tail
// pass runs serially — tails are short by construction.
func parallelBucketBatch(dep *rdd.ShuffleDep, b *rdd.ColBatch, parts int) []*rdd.ColBatch {
	n := b.TypedLen()
	if parts > n {
		parts = n
	}
	if parts <= 1 {
		return dep.BucketBatch(b)
	}
	lo := make([]int, parts+1)
	for c := 0; c <= parts; c++ {
		lo[c] = c * n / parts
	}
	idx := make([]int32, n)
	counts := make([][]int, parts)
	runChunks(parts, func(c int) {
		counts[c] = make([]int, dep.NumOut)
		dep.BucketBatchIndexRange(b, lo[c], lo[c+1], idx, counts[c])
	})
	total := make([]int, dep.NumOut)
	for c := 0; c < parts; c++ {
		for bk, k := range counts[c] {
			total[bk] += k
		}
	}
	carve, start := rdd.CarveBatchBuckets(b, total)
	next := make([][]int, parts)
	for c := 0; c < parts; c++ {
		next[c] = make([]int, dep.NumOut)
		copy(next[c], start)
		for bk, k := range counts[c] {
			start[bk] += k
		}
	}
	runChunks(parts, func(c int) {
		carve.ScatterRange(b, lo[c], lo[c+1], idx, next[c])
	})
	buckets := carve.Buckets()
	dep.ScatterBatchTail(b, buckets)
	return buckets
}

// finalizeBatchBuckets runs the per-bucket combine or ingress extraction,
// fanning buckets across parts goroutines like combineBuckets. Reduce
// deps fold each bucket via CombineCol; deps without a combine extract
// key columns (values keep their boxes) so grouping and joining
// downstream probe typed keys. Empty buckets pass through untouched,
// matching the row plane's skip.
func finalizeBatchBuckets(dep *rdd.ShuffleDep, buckets []*rdd.ColBatch, parts int) {
	finalize := func(i int) {
		bk := buckets[i]
		if bk.Len() == 0 {
			return
		}
		if dep.CombineCol != nil {
			buckets[i] = dep.CombineCol(bk)
		} else if !bk.HasCols() {
			buckets[i] = rdd.ExtractBatch(bk.Rows(), false)
		}
	}
	if parts > len(buckets) {
		parts = len(buckets)
	}
	if parts <= 1 {
		for i := range buckets {
			finalize(i)
		}
		return
	}
	var cursor atomic.Int64
	runChunks(parts, func(int) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(buckets) {
				return
			}
			finalize(i)
		}
	})
}
