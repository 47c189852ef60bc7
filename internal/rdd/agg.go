package rdd

// Keyed aggregation on the row plane. The generic keyed operators
// (reduceByKey, the combineByKey family, distinct) fold through a
// first-seen-order slot index: the overwhelmingly common key types —
// int, int64 and string — run through a monomorphic map detected from
// the first key of each batch, and a batch whose keys turn out to be
// mixed, or of any other comparable type, runs on (or degrades once to)
// a plain map[Row]int. The assigned slots (and therefore first-seen
// order, and therefore the emitted rows) are identical on every path,
// which is what keeps recomputation after a revocation byte-identical to
// the original run (see DESIGN.md "Data-plane performance").

// aggHintCap bounds how many key slots are preallocated from a row-count
// hint: below it, sizing is exact; above it, maps and slices grow
// normally and the preallocation just removes the first growth steps.
// This keeps heavily skewed batches (many rows, few keys) from paying
// for huge empty tables.
const aggHintCap = 4096

// aggHint clamps an input row count to a preallocation size.
func aggHint(rows int) int {
	if rows > aggHintCap {
		return aggHintCap
	}
	return rows
}

// slotMap rebuilds a generic slot index from a key order column: order[s]
// is slot s's key, so every already-assigned slot carries over and the
// next new key takes slot len(order). hint sizes the room for keys still
// to come.
func slotMap(order []Row, hint int) map[Row]int {
	m := make(map[Row]int, len(order)+hint)
	for s, k := range order {
		m[k] = s
	}
	return m
}

// aggregateRows folds KV rows into per-key accumulators in first-seen
// key order: create turns a key's first value into its accumulator (nil
// for identity), merge folds every later value in. It is the shared body
// of reduceRows and combineRows. The batch's key type is detected from
// the first row and the whole fold runs through a monomorphic map for
// int, int64 and string keys; any other type — or a mixed batch — runs
// on (or migrates to) a generic map[Row]int.
//
//lint:egress row-plane fallback; the generic path boxes by design
func aggregateRows(rows []Row, create func(v Row) Row, merge func(acc, v Row) Row) []Row {
	hint := aggHint(len(rows))
	order := make([]Row, 0, hint)
	acc := make([]Row, 0, hint)
	if len(rows) > 0 {
		switch rows[0].(KV).K.(type) {
		case int:
			order, acc = aggregateTyped[int](rows, create, merge, hint, order, acc)
		case int64:
			order, acc = aggregateTyped[int64](rows, create, merge, hint, order, acc)
		case string:
			order, acc = aggregateTyped[string](rows, create, merge, hint, order, acc)
		default:
			order, acc = aggregateSlots(rows, create, merge, make(map[Row]int, hint), order, acc)
		}
	}
	return emitTyped(order, acc)
}

// aggregateTyped is the monomorphic fold: one map[K]int slot index, no
// interface hashing per row. A key of a foreign type rebuilds the index
// as a generic map from the order column (slotMap) and finishes the
// batch there, preserving every assigned slot (and therefore the output
// order).
func aggregateTyped[K comparable](rows []Row, create func(v Row) Row, merge func(acc, v Row) Row, hint int, order, acc []Row) ([]Row, []Row) {
	m := make(map[K]int, hint)
	for i, r := range rows {
		kv := r.(KV)
		k, ok := kv.K.(K)
		if !ok {
			return aggregateSlots(rows[i:], create, merge, slotMap(order, hint), order, acc)
		}
		if s, seen := m[k]; seen {
			acc[s] = merge(acc[s], kv.V)
		} else {
			m[k] = len(order)
			order = append(order, kv.K)
			v := kv.V
			if create != nil {
				v = create(v)
			}
			acc = append(acc, v)
		}
	}
	return order, acc
}

// aggregateSlots is the generic fold used for non-specialized key types
// and for finishing mixed batches after a migration: slots maps each key
// seen so far to its slot, and a new key takes slot len(order).
func aggregateSlots(rows []Row, create func(v Row) Row, merge func(acc, v Row) Row, slots map[Row]int, order, acc []Row) ([]Row, []Row) {
	for _, r := range rows {
		kv := r.(KV)
		if s, seen := slots[kv.K]; seen {
			acc[s] = merge(acc[s], kv.V)
			continue
		}
		slots[kv.K] = len(order)
		order = append(order, kv.K)
		v := kv.V
		if create != nil {
			v = create(v)
		}
		acc = append(acc, v)
	}
	return order, acc
}
