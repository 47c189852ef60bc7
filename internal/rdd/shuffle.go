package rdd

// This file implements the wide (shuffle) transformations. All of them
// produce deterministic output given deterministic inputs: aggregation
// keys are tracked in first-seen order rather than Go map order (see
// agg.go for the typed fast paths), and the execution engine concatenates
// shuffle buckets in parent-partition order. Determinism matters because
// lost partitions are recomputed after revocations and must rebuild
// byte-identical state.

// JoinPair is the value type emitted by Join: one left and one right
// value sharing a key.
type JoinPair struct {
	L Row
	R Row
}

// reduceRows aggregates KV rows with a binary reducer, preserving
// first-seen key order, on the typed fast paths of agg.go.
func reduceRows(rows []Row, reduce func(a, b Row) Row) []Row {
	return aggregateRows(rows, nil, reduce)
}

// BucketRows splits rows into the dependency's NumOut shuffle buckets.
// Typed batches take a fused one-pass path: buckets are carved from one
// arena with capacities sized a little above the uniform-hash expectation
// and rows are appended to their bucket as they are hashed, so the
// interface-boxed rows are traversed once. Other batches run the generic
// two-pass scheme — count, then fill exact-size buckets carved from one
// backing array. Either way bucket b holds the same rows in the same
// order, each bucket's capacity is pinned to its own segment (appending
// to one cannot clobber its neighbour), and callers must treat the
// buckets as immutable, which the engine already requires of all shuffle
// data.
//
// The two passes of the generic scheme are exposed as range primitives
// (BucketIndexRange, ScatterRange) so the engine can chunk them across
// its worker pool; the chunked composition reproduces this serial layout
// exactly for any chunking (see internal/exec/parbucket.go).
func (d *ShuffleDep) BucketRows(rows []Row) [][]Row {
	if len(rows) == 0 {
		return make([][]Row, d.NumOut)
	}
	if d.Partitioner == nil && len(rows) >= d.NumOut {
		// Integer keys only: hashing them is a handful of arithmetic ops,
		// so saving the second row traversal is measurable. String batches
		// are bound by the key-bytes FNV hash either way and showed no win
		// from the fused pass, so they stay on the two-pass scheme below.
		if kv, ok := rows[0].(KV); ok {
			switch kv.K.(type) {
			case int, int64:
				return d.bucketOnePass(rows)
			}
		}
	}
	idx := make([]int32, len(rows))
	counts := make([]int, d.NumOut)
	d.BucketIndexRange(rows, 0, len(rows), idx, counts)
	buckets, next, flat := CarveBuckets(counts, len(rows))
	ScatterRange(rows, 0, len(rows), idx, next, flat)
	return buckets
}

// bucketOnePass is the fused columnar bucketing pass: one arena sized
// numOut × (mean bucket size + 1/8 headroom + 16) carved into zero-length
// pinned-capacity buckets, filled by bucketAppendTyped in a single scan.
// A bucket that outgrows its estimate (a skewed partition) reallocates
// alone via append; rows past the typed span finish through the generic
// d.Bucket. Contents and order are identical to the two-pass scheme.
func (d *ShuffleDep) bucketOnePass(rows []Row) [][]Row {
	numOut := d.NumOut
	est := len(rows)/numOut + len(rows)/(8*numOut) + 16
	arena := make([]Row, numOut*est)
	buckets := make([][]Row, numOut)
	for b := range buckets {
		buckets[b] = arena[b*est : b*est : (b+1)*est]
	}
	i := bucketAppendTyped(rows, 0, len(rows), newFastDiv(uint64(numOut)), buckets)
	for ; i < len(rows); i++ {
		b := d.Bucket(rows[i])
		buckets[b] = append(buckets[b], rows[i])
	}
	// Pin every bucket's capacity to its final length, re-establishing
	// the contract the rest of the engine relies on (a copy-free fetch
	// may hand a bucket out directly: any append must reallocate, never
	// write arena cells another fetch of the same bucket could observe).
	for b, rows := range buckets {
		buckets[b] = rows[:len(rows):len(rows)]
	}
	return buckets
}

// BucketIndexRange computes the bucket of every row in rows[lo:hi],
// writing idx[i] and incrementing counts[bucket]. It is a pure function
// of the range: disjoint ranges may run concurrently over the same idx
// slice with private counts. Integer- and string-keyed spans run the
// fused columnar pass (extract + hash + strength-reduced modulo); rows
// past the typed span — or any batch with a custom Partitioner — go
// through the generic d.Bucket, with identical bucket numbers either way.
func (d *ShuffleDep) BucketIndexRange(rows []Row, lo, hi int, idx []int32, counts []int) {
	i := lo
	if d.Partitioner == nil {
		i = bucketIndexTyped(rows, lo, hi, newFastDiv(uint64(d.NumOut)), idx, counts)
	}
	for ; i < hi; i++ {
		b := d.Bucket(rows[i])
		idx[i] = int32(b)
		counts[b]++
	}
}

// CarveBuckets allocates the flat backing array for n bucketed rows and
// carves it into full-length bucket slices by the per-bucket counts.
// next[b] is bucket b's first write offset into flat, for ScatterRange.
func CarveBuckets(counts []int, n int) (buckets [][]Row, next []int, flat []Row) {
	buckets = make([][]Row, len(counts))
	next = make([]int, len(counts))
	flat = make([]Row, n)
	off := 0
	for b, c := range counts {
		buckets[b] = flat[off : off+c : off+c]
		next[b] = off
		off += c
	}
	return buckets, next, flat
}

// ScatterRange writes rows[lo:hi] into flat at each row's bucket cursor,
// advancing next[bucket]. With next seeded to each bucket's first free
// offset for this range, disjoint ranges write disjoint flat segments
// and may run concurrently (each with its own next).
func ScatterRange(rows []Row, lo, hi int, idx []int32, next []int, flat []Row) {
	for i := lo; i < hi; i++ {
		b := idx[i]
		flat[next[b]] = rows[i]
		next[b]++
	}
}

// ReduceByKey shuffles KV rows by key and reduces values with the
// commutative, associative function reduce. A map-side combiner runs the
// same reduction per bucket before the shuffle, like Spark.
func (r *RDD) ReduceByKey(name string, parts int, reduce func(a, b Row) Row) *RDD {
	if reduce == nil {
		panic("rdd: ReduceByKey with nil reducer")
	}
	if parts <= 0 {
		parts = r.ctx.defaultParts
	}
	dep := &ShuffleDep{P: r, NumOut: parts, Combine: func(rows []Row) []Row {
		return reduceRows(rows, reduce)
	}}
	return r.ctx.register(&RDD{
		Name: name, NumParts: parts, RowBytes: r.RowBytes,
		Deps: []Dependency{dep},
		Fn: func(part int, inputs [][]Row) []Row {
			return reduceRows(inputs[0], reduce)
		},
	})
}

// ReduceByKeyInt is ReduceByKey for int-valued pairs: the map-side
// combine and the reduce task fold values unboxed through the columnar
// kernels (one boxing per key instead of one per merged row), degrading
// to the generic path — with identical output — when a batch's keys or
// values are not what the operator promised.
func (r *RDD) ReduceByKeyInt(name string, parts int, reduce func(a, b int) int) *RDD {
	if reduce == nil {
		panic("rdd: ReduceByKeyInt with nil reducer")
	}
	if parts <= 0 {
		parts = r.ctx.defaultParts
	}
	dep := &ShuffleDep{P: r, NumOut: parts, Columnar: true,
		Combine: func(rows []Row) []Row {
			return reduceRowsInt(rows, reduce)
		},
		CombineCol: func(b *ColBatch) *ColBatch {
			return reduceColInt(b, reduce)
		}}
	return r.ctx.register(&RDD{
		Name: name, NumParts: parts, RowBytes: r.RowBytes,
		Deps: []Dependency{dep},
		Fn: func(part int, inputs [][]Row) []Row {
			return reduceRowsInt(inputs[0], reduce)
		},
		ColFn: func(part int, inputs []*ColBatch) *ColBatch {
			return reduceColInt(inputs[0], reduce)
		},
	})
}

// ReduceByKeyFloat64 is ReduceByKey for float64-valued pairs; see
// ReduceByKeyInt. Fold association order is identical to the generic
// path, so float results are bit-identical.
func (r *RDD) ReduceByKeyFloat64(name string, parts int, reduce func(a, b float64) float64) *RDD {
	if reduce == nil {
		panic("rdd: ReduceByKeyFloat64 with nil reducer")
	}
	if parts <= 0 {
		parts = r.ctx.defaultParts
	}
	dep := &ShuffleDep{P: r, NumOut: parts, Columnar: true,
		Combine: func(rows []Row) []Row {
			return reduceRowsFloat64(rows, reduce)
		},
		CombineCol: func(b *ColBatch) *ColBatch {
			return reduceColFloat64(b, reduce)
		}}
	return r.ctx.register(&RDD{
		Name: name, NumParts: parts, RowBytes: r.RowBytes,
		Deps: []Dependency{dep},
		Fn: func(part int, inputs [][]Row) []Row {
			return reduceRowsFloat64(inputs[0], reduce)
		},
		ColFn: func(part int, inputs []*ColBatch) *ColBatch {
			return reduceColFloat64(inputs[0], reduce)
		},
	})
}

// GroupByKey shuffles KV rows by key and groups values into a []Row per
// key, emitted as KV{K, []Row}.
func (r *RDD) GroupByKey(name string, parts int) *RDD {
	if parts <= 0 {
		parts = r.ctx.defaultParts
	}
	dep := &ShuffleDep{P: r, NumOut: parts, Columnar: true}
	return r.ctx.register(&RDD{
		Name: name, NumParts: parts, RowBytes: r.RowBytes,
		Deps: []Dependency{dep},
		Fn: func(part int, inputs [][]Row) []Row {
			agg := groupRows(inputs[0])
			out := make([]Row, len(agg.order))
			for i, k := range agg.order {
				out[i] = KV{K: k, V: agg.vals[i]}
			}
			return out
		},
		ColFn: func(part int, inputs []*ColBatch) *ColBatch {
			return groupEmitBatch(groupBatch(inputs[0]))
		},
	})
}

// PartitionBy re-partitions KV rows by key hash without aggregation.
func (r *RDD) PartitionBy(name string, parts int) *RDD {
	if parts <= 0 {
		parts = r.ctx.defaultParts
	}
	dep := &ShuffleDep{P: r, NumOut: parts, Columnar: true}
	return r.ctx.register(&RDD{
		Name: name, NumParts: parts, RowBytes: r.RowBytes,
		Deps: []Dependency{dep},
		Fn: func(part int, inputs [][]Row) []Row {
			return inputs[0]
		},
		ColFn: func(part int, inputs []*ColBatch) *ColBatch {
			return inputs[0]
		},
	})
}

// Join inner-joins two KV RDDs on key, emitting KV{K, JoinPair{L, R}} for
// every matching pair. Both sides are shuffled into the same partitioning.
func (r *RDD) Join(name string, other *RDD, parts int) *RDD {
	if parts <= 0 {
		parts = r.ctx.defaultParts
	}
	left := &ShuffleDep{P: r, NumOut: parts, Columnar: true}
	right := &ShuffleDep{P: other, NumOut: parts, Columnar: true}
	return r.ctx.register(&RDD{
		Name: name, NumParts: parts,
		RowBytes: r.RowBytes + other.RowBytes,
		Deps:     []Dependency{left, right},
		Fn: func(part int, inputs [][]Row) []Row {
			return joinRows(groupRows(inputs[0]), groupRows(inputs[1]))
		},
		ColFn: func(part int, inputs []*ColBatch) *ColBatch {
			return joinBatch(inputs[0], inputs[1])
		},
	})
}

// CoGroup groups two KV RDDs by key, emitting KV{K, [2][]Row} with the
// left and right value lists (possibly empty on either side).
func (r *RDD) CoGroup(name string, other *RDD, parts int) *RDD {
	if parts <= 0 {
		parts = r.ctx.defaultParts
	}
	left := &ShuffleDep{P: r, NumOut: parts}
	right := &ShuffleDep{P: other, NumOut: parts}
	return r.ctx.register(&RDD{
		Name: name, NumParts: parts,
		RowBytes: r.RowBytes + other.RowBytes,
		Deps:     []Dependency{left, right},
		Fn: func(part int, inputs [][]Row) []Row {
			la := groupRows(inputs[0])
			ra := groupRows(inputs[1])
			if len(la.order)+len(ra.order) == 0 {
				return nil
			}
			out := make([]Row, 0, len(la.order)+len(ra.order))
			for i, k := range la.order {
				groups := [2][]Row{la.vals[i], nil}
				if j, ok := ra.look(k); ok {
					groups[1] = ra.vals[j]
				}
				out = append(out, KV{K: k, V: groups})
			}
			// Right-only keys: those the left index never saw.
			for j, k := range ra.order {
				if _, ok := la.look(k); !ok {
					out = append(out, KV{K: k, V: [2][]Row{nil, ra.vals[j]}})
				}
			}
			return out
		},
	})
}

// Distinct removes duplicate rows via a shuffle. Rows must be comparable.
func (r *RDD) Distinct(name string, parts int) *RDD {
	keyed := r.Map(name+":key", func(row Row) Row { return KV{K: row, V: nil} })
	reduced := keyed.ReduceByKey(name+":dedup", parts, func(a, b Row) Row { return a })
	return reduced.Map(name, func(row Row) Row { return row.(KV).K })
}
