//lint:hot batch-native operator kernels run per batch on every task
package rdd

// Batch-native operator kernels: the ColFn / CombineCol bodies that let
// reduce, group, join and partition consume and produce ColBatches
// without crossing through []Row. Every kernel is value-equivalent to
// boxing its input (ColBatch.Rows) and running the corresponding row
// kernel from col.go / shuffle.go — same keys, same first-seen order,
// same fold association order, same float bit patterns. The engine runs
// these bodies while EvalLocal runs the row kernels (each operator's
// Fn), so the two stay cross-checked: the batch round-trip tests in
// colbatch_test.go and FuzzColumnarRowEquivalence per kernel,
// TestFuzzEngineMatchesOracle (internal/exec) per lineage DAG, and the
// detbench FNV gates end to end.
//
// Inputs that the columnar layout cannot describe — tail-only batches,
// batches that degraded mid-extraction — fall back to the row kernel and
// re-extract the result, so correctness never depends on the fast path
// being taken.

// --- Typed-value reduce (ReduceByKeyInt / ReduceByKeyFloat64) --------

// reduceColInt is the batch form of reduceRowsInt: the CombineCol and
// ColFn body of ReduceByKeyInt. A clean int-valued typed batch folds
// column-to-column (zero boxing); anything else boxes through the row
// kernel and re-extracts.
func reduceColInt(b *ColBatch, f func(a, b int) int) *ColBatch {
	if b.vkind == vInt && len(b.tail) == 0 && b.HasCols() {
		merge := func(a, bb int64) int64 { return int64(f(int(a), int(bb))) }
		switch b.kkind {
		case kStr:
			ks, vi := foldColStrKey(b.ks, b.vi, merge)
			return &ColBatch{kkind: kStr, vkind: vInt, ks: ks, vi: vi}
		default:
			ki, vi := foldColI64Key(b.ki, b.vi, merge)
			return &ColBatch{kkind: b.kkind, vkind: vInt, ki: ki, vi: vi}
		}
	}
	return ExtractBatch(reduceRowsInt(b.Rows(), f), true)
}

// reduceColFloat64 is the batch form of reduceRowsFloat64; see
// reduceColInt. Fold association order matches the row kernel, so float
// results are bit-identical.
func reduceColFloat64(b *ColBatch, f func(a, b float64) float64) *ColBatch {
	if b.vkind == vF64 && len(b.tail) == 0 && b.HasCols() {
		switch b.kkind {
		case kStr:
			ks, vf := foldColStrKey(b.ks, b.vf, f)
			return &ColBatch{kkind: kStr, vkind: vF64, ks: ks, vf: vf}
		default:
			ki, vf := foldColI64Key(b.ki, b.vf, f)
			return &ColBatch{kkind: b.kkind, vkind: vF64, ki: ki, vf: vf}
		}
	}
	return ExtractBatch(reduceRowsFloat64(b.Rows(), f), true)
}

// foldColI64Key folds a typed value column per integer key. The i64Table
// probe loop is inlined as in reduceKeyI64 (same hash, same insertion
// order → same slot order as the row kernel); t.inorder — the distinct
// keys in slot order — is returned directly as the output key column, so
// the fold allocates no per-key state beyond the table itself.
func foldColI64Key[V int64 | float64](ki []int64, vs []V, merge func(a, b V) V) ([]int64, []V) {
	hint := aggHint(len(ki))
	t := newI64Table(hint)
	vals := make([]V, 0, hint)
	mask, keys, slot := t.mask, t.keys, t.slot
	for i, kk := range ki {
		v := vs[i]
		j := mix(uint64(kk)) & mask
		for {
			s := slot[j]
			if s >= 0 {
				if keys[j] == kk {
					vals[s] = merge(vals[s], v)
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
			vals = append(vals, v)
			break
		}
	}
	return t.inorder, vals
}

// foldColStrKey folds a typed value column per string key on the
// map[string]int32 slot index (the same index reduceKeyStr uses — see
// its comment for why the runtime map beats strTable for folds).
func foldColStrKey[V int64 | float64](ks []string, vs []V, merge func(a, b V) V) ([]string, []V) {
	hint := aggHint(len(ks))
	look := make(map[string]int32, hint)
	order := make([]string, 0, hint)
	vals := make([]V, 0, hint)
	for i, k := range ks {
		if s, seen := look[k]; seen {
			vals[s] = merge(vals[s], vs[i])
		} else {
			look[k] = int32(len(order))
			order = append(order, k)
			vals = append(vals, vs[i])
		}
	}
	return order, vals
}

// --- Batch grouping (GroupByKey / Join) ------------------------------

// groupBatch groups a batch by key, columnar when the layout allows it:
// slots probed straight off the typed key column, the grouping's key
// order kept as a typed column (kkind/orderI/orderS) so emission never
// boxes a key. Tail-carrying or tail-only batches run the row kernel
// (identical output; the grouping is then generic).
func groupBatch(b *ColBatch) *grouping {
	if !b.HasCols() || len(b.tail) > 0 {
		return groupRows(b.Rows())
	}
	switch b.kkind {
	case kStr:
		return groupColStr(b)
	default:
		return groupColI64(b)
	}
}

// groupColI64 is the batch grouping pass for integer-keyed batches. The
// two-pass exact-size scheme of groupKeyI64 is kept; the probe loop
// reads the key column instead of type-asserting rows.
func groupColI64(b *ColBatch) *grouping {
	n := b.TypedLen()
	hint := aggHint(n)
	t := newI64Table(hint)
	slots := make([]int32, n)
	counts := make([]int32, 0, hint)
	for i := 0; i < n; i++ {
		k := b.ki[i]
		s, added := t.slotOf(k, mix(uint64(k)))
		if added {
			counts = append(counts, 0)
		}
		slots[i] = s
		counts[s]++
	}
	g := &grouping{kkind: b.kkind, orderI: t.inorder, vals: fillGroupsCol(b, slots, counts)}
	if b.kkind == kInt {
		g.look = func(k Row) (int, bool) {
			kk, ok := k.(int)
			if !ok {
				return 0, false
			}
			s, ok := t.lookup(int64(kk), mix(uint64(kk)))
			return int(s), ok
		}
	} else {
		g.look = func(k Row) (int, bool) {
			kk, ok := k.(int64)
			if !ok {
				return 0, false
			}
			s, ok := t.lookup(kk, mix(uint64(kk)))
			return int(s), ok
		}
	}
	g.lookI = func(k int64) (int, bool) {
		s, ok := t.lookup(k, mix(uint64(k)))
		return int(s), ok
	}
	return g
}

// groupColStr is the batch grouping pass for string-keyed batches.
func groupColStr(b *ColBatch) *grouping {
	n := b.TypedLen()
	hint := aggHint(n)
	t := newStrTable(hint)
	slots := make([]int32, n)
	counts := make([]int32, 0, hint)
	orderS := make([]string, 0, hint)
	for i := 0; i < n; i++ {
		k := b.ks[i]
		s, added := t.slotOf(k, strHash(k))
		if added {
			counts = append(counts, 0)
			orderS = append(orderS, k)
		}
		slots[i] = s
		counts[s]++
	}
	g := &grouping{kkind: kStr, orderS: orderS, vals: fillGroupsCol(b, slots, counts)}
	g.look = func(k Row) (int, bool) {
		kk, ok := k.(string)
		if !ok {
			return 0, false
		}
		s, ok := t.lookupStr(kk, strHash(kk))
		return int(s), ok
	}
	g.lookS = func(k string) (int, bool) {
		s, ok := t.lookupStr(k, strHash(k))
		return int(s), ok
	}
	return g
}

// fillGroupsCol is fillGroups reading values off a batch: the same
// exact-size flat carve, with vRow batches handing their original value
// boxes through and typed-value batches boxing once per row (the same
// boxing the row plane would have paid at ingress).
func fillGroupsCol(b *ColBatch, slots []int32, counts []int32) [][]Row {
	n := b.TypedLen()
	flat := make([]Row, n)
	vals := make([][]Row, len(counts))
	off := 0
	for s, c := range counts {
		vals[s] = flat[off : off : off+int(c)]
		off += int(c)
	}
	if b.vkind == vRow {
		for i, v := range b.vg[:n] {
			s := slots[i]
			vals[s] = append(vals[s], v)
		}
	} else {
		for i := 0; i < n; i++ {
			s := slots[i]
			vals[s] = append(vals[s], b.boxVal(i))
		}
	}
	return vals
}

// groupEmitBatch assembles the GroupByKey output batch from a grouping:
// typed key column carried through, each value group boxed once (the row
// kernel boxes the group and the KV around it). Generic groupings emit
// boxed rows, identical to the row kernel.
//
//lint:egress group emission boxes one slice per group by design
func groupEmitBatch(g *grouping) *ColBatch {
	if g.kkind == kNone {
		out := make([]Row, len(g.order))
		for i, k := range g.order {
			out[i] = KV{K: k, V: g.vals[i]}
		}
		return WrapRows(out)
	}
	b := &ColBatch{kkind: g.kkind, vkind: vRow, vg: make([]Row, len(g.vals))}
	for i, v := range g.vals {
		b.vg[i] = v
	}
	if g.kkind == kStr {
		b.ks = g.orderS
	} else {
		b.ki = g.orderI
	}
	return b
}

// --- Batch join ------------------------------------------------------

// joinRows is the row-plane inner-join body shared by Join's Fn and the
// joinBatch fallback: size the output exactly, then emit the per-key
// cross products in left first-seen order.
//
//lint:egress join emission boxes one pair per match by design
func joinRows(la, ra *grouping) []Row {
	n := la.size()
	match := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		if j, ok := ra.look(la.key(i)); ok {
			match[i] = j
			total += len(la.vals[i]) * len(ra.vals[j])
		} else {
			match[i] = -1
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]Row, 0, total)
	for i := 0; i < n; i++ {
		j := match[i]
		if j < 0 {
			continue
		}
		k := la.key(i)
		for _, lv := range la.vals[i] {
			for _, rv := range ra.vals[j] {
				out = append(out, KV{K: k, V: JoinPair{L: lv, R: rv}})
			}
		}
	}
	return out
}

// joinBatch is the batch form of Join's Fn. When both sides grouped
// columnar with the same key kind, the cross-side probe runs typed
// (lookI/lookS, no key boxing) and the output is a typed batch whose
// values box one JoinPair per row — the row kernel boxes a JoinPair and
// a KV per row, which is what keeps Join GC-bound there. Mismatched or
// generic groupings fall back to joinRows (different integer kinds can
// never match under interface equality, which the generic probe
// reproduces).
//
//lint:egress join emission boxes one pair per match by design
func joinBatch(l, r *ColBatch) *ColBatch {
	la := groupBatch(l)
	ra := groupBatch(r)
	if la.kkind == kNone || la.kkind != ra.kkind {
		return WrapRows(joinRows(la, ra))
	}
	n := la.size()
	match := make([]int, n)
	total := 0
	if la.kkind == kStr {
		for i, k := range la.orderS {
			if j, ok := ra.lookS(k); ok {
				match[i] = j
				total += len(la.vals[i]) * len(ra.vals[j])
			} else {
				match[i] = -1
			}
		}
	} else {
		for i, k := range la.orderI {
			if j, ok := ra.lookI(k); ok {
				match[i] = j
				total += len(la.vals[i]) * len(ra.vals[j])
			} else {
				match[i] = -1
			}
		}
	}
	if total == 0 {
		return WrapRows(nil)
	}
	out := &ColBatch{kkind: la.kkind, vkind: vRow, vg: make([]Row, 0, total)}
	if la.kkind == kStr {
		out.ks = make([]string, 0, total)
	} else {
		out.ki = make([]int64, 0, total)
	}
	for i := 0; i < n; i++ {
		j := match[i]
		if j < 0 {
			continue
		}
		for _, lv := range la.vals[i] {
			for _, rv := range ra.vals[j] {
				if la.kkind == kStr {
					out.ks = append(out.ks, la.orderS[i])
				} else {
					out.ki = append(out.ki, la.orderI[i])
				}
				out.vg = append(out.vg, JoinPair{L: lv, R: rv})
			}
		}
	}
	return out
}
