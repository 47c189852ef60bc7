package rdd

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"flint/internal/dfs"
)

// rowsFNV canonicalizes rows through %#v into an FNV-64a, mirroring how
// detbench fingerprints outcomes: two row slices hash equal iff they are
// value-identical in the same order.
func rowsFNV(rows []Row) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		fmt.Fprintf(h, "%#v\n", r)
	}
	return h.Sum64()
}

// intSum / f64Sum are the canonical typed reducers; their boxed forms
// below are the generic references.
func intSum(a, b int) int         { return a + b }
func f64Sum(a, b float64) float64 { return a + b }
func boxedIntSum(a, b Row) Row    { return a.(int) + b.(int) }
func boxedF64Sum(a, b Row) Row    { return a.(float64) + b.(float64) }
func firstWins(a, b Row) Row      { return a }
func keepLeft(a, b int) int       { return a }

// decodeFuzzRows turns fuzz bytes into a KV partition. Each row's key
// and value types are driven by the input, so the corpus explores pure
// int / string / float batches as well as mixed batches that force the
// mid-batch degrade on every kernel.
func decodeFuzzRows(data []byte) []Row {
	rows := make([]Row, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		kb, vb := data[i], data[i+1]
		var k Row
		switch kb >> 5 {
		case 0, 1, 2:
			k = int(kb & 31)
		case 3, 4:
			k = fmt.Sprintf("w%02d", kb&31)
		case 5:
			k = int64(kb & 31)
		case 6:
			k = float64(kb & 31)
		default:
			k = [2]int{int(kb & 3), int(kb & 28)}
		}
		var v Row
		switch vb >> 6 {
		case 0, 1:
			v = int(vb)
		case 2:
			v = float64(vb) / 4
		default:
			v = fmt.Sprintf("v%d", vb)
		}
		rows = append(rows, KV{K: k, V: v})
	}
	return rows
}

// FuzzColumnarRowEquivalence drives random typed and mixed partitions
// through every columnar kernel and asserts byte-identical results —
// rows, order, and canonical FNVs — against the naive reference
// (reference_test.go) and the row-plane operator bodies. The
// merge function is first-wins so mixed value types never panic while
// association order still shows through.
func FuzzColumnarRowEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x21, 0x03, 0x01, 0x04})          // pure int keys
	f.Add([]byte{0x61, 0x05, 0x62, 0x06, 0x61, 0x07})          // pure string keys
	f.Add([]byte{0x01, 0x02, 0x61, 0x03, 0xc1, 0x04, 0xe1, 5}) // mixed: degrade
	f.Add([]byte{0xa1, 0x42, 0xa2, 0x43, 0xa1, 0x44})          // int64 keys
	// Externalized-state seeds (function backend): float keys, float
	// values, and a wide mixed partition — shapes that stress the
	// store round trip below with every column representation.
	f.Add([]byte{0xc1, 0x81, 0xc2, 0x82, 0xc1, 0x83})          // float64 keys, float values
	f.Add([]byte{0x01, 0x81, 0x61, 0xc1, 0xa1, 0x02, 0xc1, 3}) // one key of each type
	f.Add([]byte{0xe1, 0x01, 0xe2, 0x02, 0xe1, 0x03, 0xe3, 4}) // composite keys
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := decodeFuzzRows(data)

		// Reduce: the typed-value kernels and the generic fold vs the
		// naive reference fold.
		refReduced := refFold(rows, nil, firstWins)
		for _, got := range [][]Row{reduceTyped(rows, keepLeft, firstWins), reduceRows(rows, firstWins)} {
			if !reflect.DeepEqual(got, refReduced) || rowsFNV(got) != rowsFNV(refReduced) {
				t.Fatalf("reduce mismatch:\ngot %v\nref %v", got, refReduced)
			}
		}

		// Group: columnar tables vs the naive grouping, including lookups.
		colG := groupRows(rows)
		refOrder, refVals, refSlots := refGroup(rows)
		if !reflect.DeepEqual(colG.order, refOrder) || !reflect.DeepEqual(colG.vals, refVals) {
			t.Fatalf("group mismatch:\ncol %v %v\nref %v %v", colG.order, colG.vals, refOrder, refVals)
		}
		probes := append(append([]Row{}, colG.order...), int(99), "absent", int64(99), 3.5)
		for _, k := range probes {
			ci, cok := colG.look(k)
			ri, rok := refSlots[k]
			if ci != ri || cok != rok {
				t.Fatalf("lookup(%v) = %d,%v col vs %d,%v ref", k, ci, cok, ri, rok)
			}
		}

		// Bucketing: fused columnar pass vs per-row generic Bucket.
		for _, numOut := range []int{1, 3, 20} {
			dep := &ShuffleDep{NumOut: numOut}
			got := dep.BucketRows(rows)
			want := make([][]Row, numOut)
			for _, r := range rows {
				b := dep.Bucket(r)
				want[b] = append(want[b], r)
			}
			for b := range want {
				if len(got[b]) != len(want[b]) {
					t.Fatalf("numOut=%d bucket %d: %d rows vs %d", numOut, b, len(got[b]), len(want[b]))
				}
				if rowsFNV(got[b]) != rowsFNV(want[b]) {
					t.Fatalf("numOut=%d bucket %d differs", numOut, b)
				}
			}
		}

		// Cross-operator carry: extract → batch scatter → concat →
		// group → join, each stage checked against its row-plane twin.
		// This is the end-to-end column path of a shuffle boundary in
		// miniature (map scatter, reduce-side segment concat, grouping
		// operator), fed arbitrary mixed-type partitions.
		batch := ExtractBatch(rows, false)
		if got := batch.Rows(); rowsFNV(got) != rowsFNV(rows) || !reflect.DeepEqual(got, rows) {
			t.Fatalf("extract/box round trip differs:\ngot  %v\nwant %v", got, rows)
		}
		dep := &ShuffleDep{NumOut: 3}
		rowBuckets := dep.BucketRows(rows)
		var batchBuckets []*ColBatch
		if batch.HasCols() {
			batchBuckets = dep.BucketBatch(batch)
		} else {
			batchBuckets = make([]*ColBatch, len(rowBuckets))
			for i, rb := range rowBuckets {
				batchBuckets[i] = WrapRows(rb)
			}
		}
		total := 0
		for i := range batchBuckets {
			if rowsFNV(batchBuckets[i].Rows()) != rowsFNV(rowBuckets[i]) {
				t.Fatalf("batch bucket %d differs from row bucket", i)
			}
			total += batchBuckets[i].Len()
		}
		fetched := ConcatBatches(batchBuckets, total)
		var wantFetched []Row
		for _, rb := range rowBuckets {
			wantFetched = append(wantFetched, rb...)
		}
		if rowsFNV(fetched.Rows()) != rowsFNV(wantFetched) {
			t.Fatal("concat of batch buckets differs from row-bucket concat")
		}
		// Externalized-state boundary (function backend): every map-side
		// bucket crosses a dfs store — written under its segment key,
		// read back by the reducer — and the reassembled rows must stay
		// byte-identical to the in-memory shuffle path.
		st := dfs.New(dfs.Config{})
		for i, bk := range batchBuckets {
			st.Put(fmt.Sprintf("fnshuffle/1/map/%d", i), bk, int64(bk.Len())+1, float64(i))
		}
		ext := make([]*ColBatch, len(batchBuckets))
		for i := range batchBuckets {
			v, _, ok := st.Peek(fmt.Sprintf("fnshuffle/1/map/%d", i))
			if !ok {
				t.Fatalf("externalized bucket %d missing from store", i)
			}
			ext[i] = v.(*ColBatch)
		}
		extFetched := ConcatBatches(ext, total)
		if rowsFNV(extFetched.Rows()) != rowsFNV(wantFetched) {
			t.Fatal("externalized shuffle round trip differs from the in-memory path")
		}
		gb := groupEmitBatch(groupBatch(fetched)).Rows()
		gr := groupEmitBatch(groupBatch(WrapRows(wantFetched))).Rows()
		if rowsFNV(gb) != rowsFNV(gr) || !reflect.DeepEqual(gb, gr) {
			t.Fatal("group across the batch boundary differs from row plane")
		}
		jb := joinBatch(fetched, fetched).Rows()
		jr := joinRows(groupRows(wantFetched), groupRows(wantFetched))
		if len(jb) != 0 || len(jr) != 0 {
			if rowsFNV(jb) != rowsFNV(jr) || !reflect.DeepEqual(jb, jr) {
				t.Fatal("join across the batch boundary differs from row plane")
			}
		}
	})
}

// typedEquivCheck reduces rows with the typed int kernel and the generic
// path and requires identical output.
func typedEquivCheck(t *testing.T, rows []Row) {
	t.Helper()
	col := reduceRowsInt(rows, intSum)
	gen := reduceRows(rows, boxedIntSum)
	if !reflect.DeepEqual(col, gen) || rowsFNV(col) != rowsFNV(gen) {
		t.Fatalf("typed reduce differs from generic:\ncol %v\ngen %v", col, gen)
	}
}

// Mid-partition key-type changes must degrade with every already-assigned
// slot (and therefore the emitted order) preserved.
func TestColumnarDegradeMidPartitionKeys(t *testing.T) {
	rows := []Row{
		KV{K: 1, V: 10}, KV{K: 2, V: 20}, KV{K: 1, V: 1},
		KV{K: "x", V: 5}, // foreign key: degrade here
		KV{K: 2, V: 2}, KV{K: "x", V: 50}, KV{K: 3, V: 30},
	}
	typedEquivCheck(t, rows)
	out := reduceRowsInt(rows, intSum)
	wantKeys := []Row{1, 2, "x", 3}
	for i, kv := range out {
		if kv.(KV).K != wantKeys[i] {
			t.Fatalf("slot order not preserved across degrade: got %v", out)
		}
	}
	if out[0].(KV).V != 11 || out[1].(KV).V != 22 || out[2].(KV).V != 55 {
		t.Fatalf("merged values wrong after degrade: %v", out)
	}
}

// A foreign VALUE type must degrade too; if that value stays a singleton
// it passes through unmerged on both paths (the generic reducer never
// sees it, so nothing panics).
func TestColumnarDegradeMidPartitionValues(t *testing.T) {
	rows := []Row{
		KV{K: 7, V: 1}, KV{K: 8, V: 2},
		KV{K: 9, V: "not-an-int"}, // foreign singleton value
		KV{K: 7, V: 3}, KV{K: 8, V: 4},
	}
	typedEquivCheck(t, rows)
	out := reduceRowsInt(rows, intSum)
	if out[2].(KV).V != "not-an-int" {
		t.Fatalf("singleton foreign value not passed through: %v", out)
	}
}

// String-keyed degrade: the arena-backed table must hand its slots over
// to the generic map exactly like the int table does.
func TestColumnarDegradeStringKeys(t *testing.T) {
	rows := []Row{
		KV{K: "a", V: 1}, KV{K: "b", V: 2}, KV{K: "a", V: 3},
		KV{K: 42, V: 4}, // foreign key
		KV{K: "b", V: 5}, KV{K: 42, V: 6},
	}
	typedEquivCheck(t, rows)
}

// Grouping must degrade mid-partition the same way, with cross-side
// lookups (the join probe) still resolving every key.
func TestColumnarGroupDegradeMidPartition(t *testing.T) {
	rows := []Row{
		KV{K: 1, V: "a"}, KV{K: 2, V: "b"},
		KV{K: "s", V: "c"}, // foreign key
		KV{K: 1, V: "d"}, KV{K: "s", V: "e"},
	}
	colG := groupRows(rows)
	refOrder, refVals, refSlots := refGroup(rows)
	if !reflect.DeepEqual(colG.order, refOrder) || !reflect.DeepEqual(colG.vals, refVals) {
		t.Fatalf("grouping degrade mismatch: %v %v vs %v %v", colG.order, colG.vals, refOrder, refVals)
	}
	for _, k := range colG.order {
		ci, cok := colG.look(k)
		if ri := refSlots[k]; !cok || ci != ri {
			t.Fatalf("post-degrade lookup(%v) = %d,%v want %d,true", k, ci, cok, ri)
		}
	}
}

// The typed operators must produce the same lineage results as plain
// ReduceByKey with the boxed reducer, end to end through EvalLocal.
func TestReduceByKeyTypedOperatorsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eedc01b))
	gen := func(part int) []Row {
		r := rand.New(rand.NewSource(int64(part) + 99))
		rows := make([]Row, 2000)
		for i := range rows {
			rows[i] = KV{K: r.Intn(128), V: r.Intn(50)}
		}
		return rows
	}
	build := func(typed bool) [][]Row {
		c := NewContext(4)
		src := c.Parallelize("src", 4, 8, gen)
		var red *RDD
		if typed {
			red = src.ReduceByKeyInt("sum", 4, intSum)
		} else {
			red = src.ReduceByKey("sum", 4, boxedIntSum)
		}
		return EvalLocal(red)
	}
	typed, generic := build(true), build(false)
	if !reflect.DeepEqual(typed, generic) {
		t.Fatal("ReduceByKeyInt lineage output differs from ReduceByKey")
	}
	_ = rng
}

// Float64 kernel: association order (and so float bit patterns) must
// match the generic fold exactly, including on skewed batches.
func TestReduceFloat64BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eedc01c))
	rows := make([]Row, 20000)
	for i := range rows {
		// Skew plus magnitudes chosen so float addition is order-sensitive.
		k := int(rng.ExpFloat64() * 20)
		rows[i] = KV{K: k, V: rng.Float64() * float64(uint64(1)<<uint(rng.Intn(40)))}
	}
	col := reduceRowsFloat64(rows, f64Sum)
	gen := reduceRows(rows, boxedF64Sum)
	if !reflect.DeepEqual(col, gen) {
		t.Fatal("float64 fold not bit-identical to generic path")
	}
}
