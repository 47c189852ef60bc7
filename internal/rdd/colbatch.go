//lint:hot column batch representation; accessors run per row
package rdd

// ColBatch is the column-carrying partition representation: the unit the
// engine moves between operators, shuffle buckets, cache entries and
// checkpoint writes.
//
// A batch is a prefix of typed rows followed by an optional generic tail:
//
//	row i < TypedLen():  key  = key column [i]   (ki or ks)
//	                     value = value column [i] (vi, vf or vg)
//	row i >= TypedLen(): tail[i-TypedLen()], an interface-boxed Row
//	                     exactly as the producer built it
//
// The split point mirrors the slot-preserving degrade rules of the
// columnar kernels (col.go): extraction consumes rows while the key and
// value types detected at row 0 hold, and parks everything after the
// first foreign row in the tail with its original boxes intact. A batch
// whose rows never matched a typed layout is tail-only (kkind == kNone)
// and wraps its []Row at zero cost — Rows() returns the tail directly,
// so the non-columnar plane pays nothing for traveling inside a batch.
//
// Boxing back to []Row happens once, at egress: into a user Fn closure,
// a non-columnar operator, or result delivery. Boxed keys and values are
// rebuilt with their original dynamic types (a Go `int` key extracted
// into the int64 column boxes back as `int`), so egressed rows are
// value-identical to the rows the producer would have emitted on the
// []Row plane — which is what the determinism FNVs and the
// engine-vs-EvalLocal equality tests observe.
//
// Batches are immutable once published (the same contract shuffle
// buckets always had); every consumer may alias their columns.

// colKind discriminates the typed key column layout of a batch.
type colKind uint8

const (
	kNone colKind = iota // no typed columns; rows live in tail
	kInt                 // Go int keys, widened into ki
	kI64                 // int64 keys in ki
	kStr                 // string keys in ks
)

// valKind discriminates the value column layout of a typed batch.
type valKind uint8

const (
	vRow valKind = iota // generic values: original boxes in vg
	vInt                // Go int values, widened into vi
	vI64                // int64 values in vi
	vF64                // float64 values in vf
)

// ColBatch is one partition (or shuffle bucket) carried as columns.
// See the file comment for the layout contract.
type ColBatch struct {
	kkind colKind
	vkind valKind
	ki    []int64   // kInt / kI64 key column
	ks    []string  // kStr key column
	vi    []int64   // vInt / vI64 value column
	vf    []float64 // vF64 value column
	vg    []Row     // vRow value column (original value boxes)
	tail  []Row     // rows after the degrade point (original row boxes)
}

// WrapRows wraps a []Row as a tail-only batch without copying or
// inspecting it. Rows() returns the same slice back, so a wrap-unwrap
// round trip preserves aliasing (and nil-ness) exactly.
func WrapRows(rows []Row) *ColBatch {
	return &ColBatch{tail: rows}
}

// TypedLen returns the number of rows held in typed columns.
func (b *ColBatch) TypedLen() int {
	switch b.kkind {
	case kStr:
		return len(b.ks)
	case kNone:
		return 0
	default:
		return len(b.ki)
	}
}

// Len returns the total row count (typed prefix + tail).
func (b *ColBatch) Len() int { return b.TypedLen() + len(b.tail) }

// HasCols reports whether the batch carries typed columns.
func (b *ColBatch) HasCols() bool { return b.kkind != kNone }

// boxKey boxes the key of typed row i with its original dynamic type.
//
//lint:egress the batch-to-row boundary; boxes exactly one key per requested row
func (b *ColBatch) boxKey(i int) Row {
	switch b.kkind {
	case kInt:
		return int(b.ki[i])
	case kI64:
		return b.ki[i]
	default:
		return b.ks[i]
	}
}

// boxVal boxes the value of typed row i with its original dynamic type.
// vRow values return the producer's original box.
//
//lint:egress the batch-to-row boundary; boxes exactly one value per requested row
func (b *ColBatch) boxVal(i int) Row {
	switch b.vkind {
	case vInt:
		return int(b.vi[i])
	case vI64:
		return b.vi[i]
	case vF64:
		return b.vf[i]
	default:
		return b.vg[i]
	}
}

// Key returns the boxed key of row i (typed or tail). Test/debug helper;
// hot paths read the columns directly.
func (b *ColBatch) Key(i int) Row {
	if tl := b.TypedLen(); i >= tl {
		return b.tail[i-tl].(KV).K
	}
	return b.boxKey(i)
}

// Rows boxes the batch back to a []Row. Tail-only batches return their
// tail directly (no copy, preserving aliasing with the producer); typed
// batches allocate one fresh slice and box each typed row as a KV, then
// append the tail rows. Rows is the single egress point of the columnar
// plane: everything past it is the ordinary []Row world.
func (b *ColBatch) Rows() []Row {
	tl := b.TypedLen()
	if tl == 0 {
		return b.tail
	}
	out := make([]Row, tl+len(b.tail))
	b.appendRows(out[:0])
	return out
}

// appendRows boxes every row of the batch onto dst and returns it.
//
//lint:egress the batch-to-row boundary; materializes boxed rows on request
func (b *ColBatch) appendRows(dst []Row) []Row {
	tl := b.TypedLen()
	switch {
	case b.kkind == kInt && b.vkind == vInt:
		// The two monomorphic hot layouts get fused loops: the generic
		// boxKey/boxVal pair costs two switch dispatches per row.
		for i := 0; i < tl; i++ {
			dst = append(dst, KV{K: int(b.ki[i]), V: int(b.vi[i])})
		}
	case b.kkind == kInt && b.vkind == vF64:
		for i := 0; i < tl; i++ {
			dst = append(dst, KV{K: int(b.ki[i]), V: b.vf[i]})
		}
	default:
		for i := 0; i < tl; i++ {
			dst = append(dst, KV{K: b.boxKey(i), V: b.boxVal(i)})
		}
	}
	return append(dst, b.tail...)
}

// ExtractBatch builds a ColBatch from KV rows, detecting the key (and,
// when typedVals is set, value) column types from the first row and
// consuming rows for as long as those types hold; the remainder becomes
// the tail with its original boxes. Producers that keep their value
// boxes (grouping, join inputs) pass typedVals=false so vg aliases the
// existing boxes and extraction costs one type-assert per row; the
// reduce kernels extract values too and fold them unboxed.
func ExtractBatch(rows []Row, typedVals bool) *ColBatch {
	if len(rows) == 0 {
		return WrapRows(rows)
	}
	kv0, ok := rows[0].(KV)
	if !ok {
		return WrapRows(rows)
	}
	b := &ColBatch{}
	switch kv0.K.(type) {
	case int:
		b.kkind = kInt
	case int64:
		b.kkind = kI64
	case string:
		b.kkind = kStr
	default:
		return WrapRows(rows)
	}
	if typedVals {
		switch kv0.V.(type) {
		case int:
			b.vkind = vInt
		case int64:
			b.vkind = vI64
		case float64:
			b.vkind = vF64
		}
	}
	n := len(rows)
	i := 0
	switch b.kkind {
	case kStr:
		b.ks = make([]string, 0, n)
	default:
		b.ki = make([]int64, 0, n)
	}
	switch b.vkind {
	case vInt, vI64:
		b.vi = make([]int64, 0, n)
	case vF64:
		b.vf = make([]float64, 0, n)
	default:
		b.vg = make([]Row, 0, n)
	}
loop:
	for ; i < n; i++ {
		kv, ok := rows[i].(KV)
		if !ok {
			break
		}
		switch b.vkind {
		case vInt:
			v, ok := kv.V.(int)
			if !ok {
				break loop
			}
			b.vi = append(b.vi, int64(v))
		case vI64:
			v, ok := kv.V.(int64)
			if !ok {
				break loop
			}
			b.vi = append(b.vi, v)
		case vF64:
			v, ok := kv.V.(float64)
			if !ok {
				break loop
			}
			b.vf = append(b.vf, v)
		default:
			b.vg = append(b.vg, kv.V)
		}
		switch b.kkind {
		case kInt:
			k, ok := kv.K.(int)
			if !ok {
				break loop
			}
			b.ki = append(b.ki, int64(k))
		case kI64:
			k, ok := kv.K.(int64)
			if !ok {
				break loop
			}
			b.ki = append(b.ki, k)
		default:
			k, ok := kv.K.(string)
			if !ok {
				break loop
			}
			b.ks = append(b.ks, k)
		}
	}
	// The value columns may run one entry ahead of the key column when the
	// loop broke on a foreign key; trim to the shorter of the two so both
	// describe exactly the typed prefix.
	tl := b.TypedLen()
	switch b.vkind {
	case vInt, vI64:
		b.vi = b.vi[:tl]
	case vF64:
		b.vf = b.vf[:tl]
	default:
		b.vg = b.vg[:tl]
	}
	if i < n {
		b.tail = rows[i:]
	}
	if tl == 0 {
		return WrapRows(rows)
	}
	return b
}

// ConcatBatches concatenates fetch segments into one batch. A single
// segment is returned directly — the copy-free view the []Row plane's
// single-segment materialize had, now for any layout. Multiple segments
// sharing the leading segment's typed layout have their columns appended
// (no boxing, no interface traffic); from the first segment that breaks
// the pattern — a tail, a different layout — everything remaining is
// boxed into the result's tail, preserving global row order. total must
// be the summed Len of segs.
func ConcatBatches(segs []*ColBatch, total int) *ColBatch {
	switch len(segs) {
	case 0:
		return WrapRows(nil)
	case 1:
		return segs[0]
	}
	first := segs[0]
	if first.kkind == kNone {
		// Generic plane: exact-size row concat, same as the []Row
		// materialize always did.
		out := make([]Row, 0, total)
		for _, s := range segs {
			out = s.appendRows(out)
		}
		return WrapRows(out)
	}
	b := &ColBatch{kkind: first.kkind, vkind: first.vkind}
	switch b.kkind {
	case kStr:
		b.ks = make([]string, 0, total)
	default:
		b.ki = make([]int64, 0, total)
	}
	switch b.vkind {
	case vInt, vI64:
		b.vi = make([]int64, 0, total)
	case vF64:
		b.vf = make([]float64, 0, total)
	default:
		b.vg = make([]Row, 0, total)
	}
	for si, s := range segs {
		if s.kkind == b.kkind && s.vkind == b.vkind {
			switch b.kkind {
			case kStr:
				b.ks = append(b.ks, s.ks...)
			default:
				b.ki = append(b.ki, s.ki...)
			}
			switch b.vkind {
			case vInt, vI64:
				b.vi = append(b.vi, s.vi...)
			case vF64:
				b.vf = append(b.vf, s.vf...)
			default:
				b.vg = append(b.vg, s.vg...)
			}
			if len(s.tail) == 0 {
				continue
			}
			// This segment degrades mid-way: its tail starts the result's
			// tail and every later segment is boxed behind it.
			b.tail = append(make([]Row, 0, total-b.TypedLen()), s.tail...)
			for _, rest := range segs[si+1:] {
				b.tail = rest.appendRows(b.tail)
			}
			return b
		}
		// Layout break: box this segment and everything after it.
		b.tail = make([]Row, 0, total-b.TypedLen())
		for _, rest := range segs[si:] {
			b.tail = rest.appendRows(b.tail)
		}
		return b
	}
	return b
}
