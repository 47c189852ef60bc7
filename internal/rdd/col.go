//lint:hot columnar reduce/group/join kernels run per row
package rdd

// Columnar batch kernels. The hot keyed operators — reduce/combine,
// group, join, coGroup and shuffle bucketing — extract keys once into
// typed columns, probe them through open-addressed slot tables
// (coltable.go) and, for the ReduceByKeyInt/ReduceByKeyFloat64
// operators, fold values unboxed, boxing one accumulator per key at
// emission instead of one per merged row.
//
// Every kernel assigns key slots in first-seen order and folds each
// key's values in arrival order, so recomputing a partition after a
// revocation rebuilds byte-identical rows: same keys, same order, same
// float bit patterns. Keys of any other comparable type run on a plain
// map[Row]int with the same contract, and a batch whose key or value
// type stops matching the detected column type degrades mid-batch onto
// that map with every already-assigned slot preserved (slotMap).
// FuzzKeyedOpsMatchReference (reference_test.go) pins the contract
// against a naive map-based reimplementation of the keyed operators;
// the TestColumnar* unit tests in col_test.go pin the degrade edges and
// the detbench FNV gates pin it end to end.

// fnvStr hashes a string key exactly like HashKey does (FNV-1a), without
// the hash.Hash64 allocation. Shuffle routing depends on this equality:
// bucketIndexTyped feeds fnvStr through fastDiv.mod and must land every
// key in the same bucket as PartitionOf.
func fnvStr(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// bucketIndexTyped is the fused extract+hash+bucket pass of shuffle
// bucketing for int-, int64- and string-keyed batches: one monomorphic
// loop per key type, the modulo strength-reduced through fd. It consumes
// rows[lo:hi] for as long as the key type detected at rows[lo] holds,
// filling idx and counts, and returns the first index it did not consume
// (the caller finishes remaining rows via the generic d.Bucket). Bucket
// numbers equal PartitionOf(key, numOut) exactly.
func bucketIndexTyped(rows []Row, lo, hi int, fd fastDiv, idx []int32, counts []int) int {
	kv0, ok := rows[lo].(KV)
	if !ok {
		return lo
	}
	switch kv0.K.(type) {
	case int:
		for i := lo; i < hi; i++ {
			kv, ok := rows[i].(KV)
			if !ok {
				return i
			}
			k, ok := kv.K.(int)
			if !ok {
				return i
			}
			b := int32(fd.mod(mix(uint64(k))))
			idx[i] = b
			counts[b]++
		}
	case int64:
		for i := lo; i < hi; i++ {
			kv, ok := rows[i].(KV)
			if !ok {
				return i
			}
			k, ok := kv.K.(int64)
			if !ok {
				return i
			}
			b := int32(fd.mod(mix(uint64(k))))
			idx[i] = b
			counts[b]++
		}
	case string:
		for i := lo; i < hi; i++ {
			kv, ok := rows[i].(KV)
			if !ok {
				return i
			}
			k, ok := kv.K.(string)
			if !ok {
				return i
			}
			b := int32(fd.mod(fnvStr(k)))
			idx[i] = b
			counts[b]++
		}
	default:
		return lo
	}
	return hi
}

// bucketAppendTyped is the one-pass variant of bucketIndexTyped used by
// the serial BucketRows fast path: instead of recording bucket indexes
// for a later scatter pass, each row is appended to its bucket directly,
// so the interface-boxed rows are traversed once instead of twice. It
// consumes rows[lo:hi] while the key type detected at rows[lo] holds and
// returns the first index it did not consume.
func bucketAppendTyped(rows []Row, lo, hi int, fd fastDiv, buckets [][]Row) int {
	kv0, ok := rows[lo].(KV)
	if !ok {
		return lo
	}
	switch kv0.K.(type) {
	case int:
		for i := lo; i < hi; i++ {
			kv, ok := rows[i].(KV)
			if !ok {
				return i
			}
			k, ok := kv.K.(int)
			if !ok {
				return i
			}
			b := fd.mod(mix(uint64(k)))
			buckets[b] = append(buckets[b], rows[i])
		}
	case int64:
		for i := lo; i < hi; i++ {
			kv, ok := rows[i].(KV)
			if !ok {
				return i
			}
			k, ok := kv.K.(int64)
			if !ok {
				return i
			}
			b := fd.mod(mix(uint64(k)))
			buckets[b] = append(buckets[b], rows[i])
		}
	case string:
		for i := lo; i < hi; i++ {
			kv, ok := rows[i].(KV)
			if !ok {
				return i
			}
			k, ok := kv.K.(string)
			if !ok {
				return i
			}
			b := fd.mod(fnvStr(k))
			buckets[b] = append(buckets[b], rows[i])
		}
	default:
		return lo
	}
	return hi
}

// --- Typed-value reduce kernels -------------------------------------

// reduceRowsInt folds int-valued KV rows per key, columnar when the
// batch allows it. It is the combine body of ReduceByKeyInt.
func reduceRowsInt(rows []Row, f func(a, b int) int) []Row {
	return reduceTyped(rows, f, func(a, b Row) Row { return f(a.(int), b.(int)) })
}

// reduceRowsFloat64 folds float64-valued KV rows per key, columnar when
// the batch allows it. It is the combine body of ReduceByKeyFloat64.
func reduceRowsFloat64(rows []Row, f func(a, b float64) float64) []Row {
	return reduceTyped(rows, f, func(a, b Row) Row { return f(a.(float64), b.(float64)) })
}

// reduceTyped dispatches a typed-value fold on the key type of the
// batch's first row. box is the Row-boxed form of f, used verbatim by
// the generic fallback so merge association order — and therefore float
// bit patterns — match the columnar fold exactly.
func reduceTyped[V any](rows []Row, f func(a, b V) V, box func(a, b Row) Row) []Row {
	if len(rows) == 0 {
		return reduceRows(rows, box)
	}
	kv, ok := rows[0].(KV)
	if !ok {
		return reduceRows(rows, box) // panics with the canonical message
	}
	switch kv.K.(type) {
	case int:
		return reduceKeyI64[int](rows, f, box)
	case int64:
		return reduceKeyI64[int64](rows, f, box)
	case string:
		return reduceKeyStr(rows, f, box)
	default:
		return reduceRows(rows, box)
	}
}

// reduceKeyI64 is the columnar fold for integer keys: slots from an
// open-addressed i64Table, values accumulated unboxed in a typed column.
// order retains each key's original box, so emission never re-boxes a
// key. A foreign key or value type degrades to the generic path with
// slots preserved.
func reduceKeyI64[K ~int | ~int64, V any](rows []Row, f func(a, b V) V, box func(a, b Row) Row) []Row {
	hint := aggHint(len(rows))
	t := newI64Table(hint)
	order := make([]Row, 0, hint)
	vals := make([]V, 0, hint)
	// The probe loop is inlined here rather than calling t.slotOf: the
	// call (and its per-row growth check) was the hottest instruction
	// block in the fold's CPU profile. Growth moves to the per-distinct-key
	// insert path, after which the hoisted table views are refreshed.
	mask, keys, slot := t.mask, t.keys, t.slot
	for i, r := range rows {
		kv, ok := r.(KV)
		if !ok {
			return degradeReduce(rows[i:], order, vals, box)
		}
		k, kok := kv.K.(K)
		v, vok := kv.V.(V)
		if !kok || !vok {
			return degradeReduce(rows[i:], order, vals, box)
		}
		kk := int64(k)
		j := mix(uint64(kk)) & mask
		for {
			s := slot[j]
			if s >= 0 {
				if keys[j] == kk {
					vals[s] = f(vals[s], v)
					break
				}
				j = (j + 1) & mask
				continue
			}
			if t.n*4 >= len(slot)*3 {
				t.grow()
				t.slotOf(kk, mix(uint64(kk)))
				mask, keys, slot = t.mask, t.keys, t.slot
			} else {
				slot[j] = int32(t.n)
				keys[j] = kk
				t.n++
				t.inorder = append(t.inorder, kk)
			}
			order = append(order, kv.K)
			vals = append(vals, v)
			break
		}
	}
	return emitTyped(order, vals)
}

// reduceKeyStr is the typed-value fold for string keys. The slot index
// is a plain map[string]int32 rather than a strTable: for a fold that
// probes every key exactly once per row, the runtime's hardware-hashed
// string map wins over any software-hashed probe table (measured ~5%
// the other way with strTable). The columnar gain for string keys is
// the value column — merges fold unboxed, one boxing per key at
// emission. strTable remains the grouping/join index, where its arena
// and cached hashes are reused across cross-side lookups.
func reduceKeyStr[V any](rows []Row, f func(a, b V) V, box func(a, b Row) Row) []Row {
	hint := aggHint(len(rows))
	look := make(map[string]int32, hint)
	order := make([]Row, 0, hint)
	vals := make([]V, 0, hint)
	for i, r := range rows {
		kv, ok := r.(KV)
		if !ok {
			return degradeReduce(rows[i:], order, vals, box)
		}
		k, kok := kv.K.(string)
		v, vok := kv.V.(V)
		if !kok || !vok {
			return degradeReduce(rows[i:], order, vals, box)
		}
		if s, seen := look[k]; seen {
			vals[s] = f(vals[s], v)
		} else {
			look[k] = int32(len(order))
			order = append(order, kv.K)
			vals = append(vals, v)
		}
	}
	return emitTyped(order, vals)
}

// emitTyped assembles KV output rows from the key order column and the
// typed accumulator column — the one boxing per key of the whole fold.
//
//lint:egress reduce emission boxes one accumulator per key by design
func emitTyped[V any](order []Row, vals []V) []Row {
	out := make([]Row, len(order))
	for i, k := range order {
		out[i] = KV{K: k, V: vals[i]}
	}
	return out
}

// degradeReduce finishes a typed fold on the generic path after a
// foreign key or value type appeared mid-batch: the typed accumulators
// are boxed once, the slot index is rebuilt as a generic map from the
// order column (slotMap), and the remaining rows run through
// aggregateSlots with the boxed merge. A value that never meets another
// of its key passes through unfolded on both paths, so outputs stay
// value-identical.
//
//lint:egress degrade path re-boxes the typed accumulators it is abandoning
func degradeReduce[V any](rest []Row, order []Row, vals []V, box func(a, b Row) Row) []Row {
	hint := aggHint(len(rest))
	acc := make([]Row, len(order), len(order)+hint)
	for s, v := range vals {
		acc[s] = v
	}
	order, acc = aggregateSlots(rest, nil, box, slotMap(order, hint), order, acc)
	return emitTyped(order, acc)
}

// --- Columnar grouping (GroupByKey / Join / CoGroup) -----------------

// grouping is the operator-facing view of a grouped batch: keys in
// first-seen order, each key's values in arrival order, and a lookup
// from key to slot for cross-side probes (joins). Built columnar by
// groupRows for int/int64/string keys, else on a generic map. The
// batch kernels (groupBatch, colkernel.go) build groupings whose key
// order is a typed column instead of boxed rows: kkind discriminates,
// orderI/orderS hold the keys, and lookI/lookS are the unboxed probe
// forms of look. Row-plane constructors leave kkind == kNone and fill
// order; consumers that work on either shape go through key/size/look.
type grouping struct {
	order []Row
	vals  [][]Row
	look  func(Row) (int, bool)

	kkind  colKind
	orderI []int64
	orderS []string
	lookI  func(int64) (int, bool)
	lookS  func(string) (int, bool)
}

// size returns the number of distinct keys.
func (g *grouping) size() int {
	switch g.kkind {
	case kStr:
		return len(g.orderS)
	case kNone:
		return len(g.order)
	default:
		return len(g.orderI)
	}
}

// key boxes key i with its original dynamic type (generic groupings hand
// the producer's box through).
//
//lint:egress group emission boxes one key per group by design
func (g *grouping) key(i int) Row {
	switch g.kkind {
	case kInt:
		return int(g.orderI[i])
	case kI64:
		return g.orderI[i]
	case kStr:
		return g.orderS[i]
	default:
		return g.order[i]
	}
}

// groupRows groups KV rows by key in two passes — assign slots and
// count, then fill value slices carved from one flat allocation — with
// the slot probes running on the columnar tables for int/int64/string
// keys and on a generic map (degradeGroup from row 0) for any other key
// type.
func groupRows(rows []Row) *grouping {
	if len(rows) > 0 {
		if kv, ok := rows[0].(KV); ok {
			switch kv.K.(type) {
			case int:
				return groupKeyI64[int](rows)
			case int64:
				return groupKeyI64[int64](rows)
			case string:
				return groupKeyStr(rows)
			}
		}
	}
	hint := aggHint(len(rows))
	return degradeGroup(rows, 0, make([]Row, 0, hint), make([]int32, len(rows)), make([]int32, 0, hint))
}

// groupKeyI64 is the columnar grouping pass for integer keys.
func groupKeyI64[K ~int | ~int64](rows []Row) *grouping {
	hint := aggHint(len(rows))
	t := newI64Table(hint)
	order := make([]Row, 0, hint)
	slots := make([]int32, len(rows))
	counts := make([]int32, 0, hint)
	for i, r := range rows {
		kv, ok := r.(KV)
		var k K
		if ok {
			k, ok = kv.K.(K)
		}
		if !ok {
			return degradeGroup(rows, i, order, slots, counts)
		}
		s, added := t.slotOf(int64(k), mix(uint64(k)))
		if added {
			order = append(order, kv.K)
			counts = append(counts, 0)
		}
		slots[i] = s
		counts[s]++
	}
	return &grouping{
		order: order,
		vals:  fillGroups(rows, slots, counts),
		look: func(k Row) (int, bool) {
			kk, ok := k.(K)
			if !ok {
				// A differently-typed probe key can never equal one of
				// this batch's keys (Go interface equality), same as a
				// map[Row]int lookup.
				return 0, false
			}
			s, ok := t.lookup(int64(kk), mix(uint64(kk)))
			return int(s), ok
		},
	}
}

// groupKeyStr is the columnar grouping pass for string keys.
func groupKeyStr(rows []Row) *grouping {
	hint := aggHint(len(rows))
	t := newStrTable(hint)
	order := make([]Row, 0, hint)
	slots := make([]int32, len(rows))
	counts := make([]int32, 0, hint)
	for i, r := range rows {
		kv, ok := r.(KV)
		var k string
		if ok {
			k, ok = kv.K.(string)
		}
		if !ok {
			return degradeGroup(rows, i, order, slots, counts)
		}
		s, added := t.slotOf(k, strHash(k))
		if added {
			order = append(order, kv.K)
			counts = append(counts, 0)
		}
		slots[i] = s
		counts[s]++
	}
	return &grouping{
		order: order,
		vals:  fillGroups(rows, slots, counts),
		look: func(k Row) (int, bool) {
			kk, ok := k.(string)
			if !ok {
				return 0, false
			}
			s, ok := t.lookupStr(kk, strHash(kk))
			return int(s), ok
		},
	}
}

// degradeGroup finishes a grouping pass on a generic map[Row]int from
// rows[i] on: the map is rebuilt from the order column with slot numbers
// preserved (slotMap), the count pass continues, and lookups run on the
// map. With i == 0 and empty order it is the whole grouping for key
// types the columnar tables do not cover.
func degradeGroup(rows []Row, i int, order []Row, slots []int32, counts []int32) *grouping {
	idx := slotMap(order, aggHint(len(rows)-i))
	for ; i < len(rows); i++ {
		kv := rows[i].(KV)
		s, seen := idx[kv.K]
		if !seen {
			s = len(order)
			idx[kv.K] = s
			order = append(order, kv.K)
			counts = append(counts, 0)
		}
		slots[i] = int32(s)
		counts[s]++
	}
	return &grouping{
		order: order,
		vals:  fillGroups(rows, slots, counts),
		look: func(k Row) (int, bool) {
			s, ok := idx[k]
			return s, ok
		},
	}
}

// fillGroups is the exact-size fill pass shared by the columnar grouping
// kernels: value slices carved from one flat allocation with capacities
// pinned to their own segments, so consumers appending to an emitted
// group copy instead of clobbering a neighbour.
func fillGroups(rows []Row, slots []int32, counts []int32) [][]Row {
	flat := make([]Row, len(rows))
	vals := make([][]Row, len(counts))
	off := 0
	for s, c := range counts {
		vals[s] = flat[off : off : off+int(c)]
		off += int(c)
	}
	for i, r := range rows {
		s := slots[i]
		vals[s] = append(vals[s], r.(KV).V)
	}
	return vals
}
