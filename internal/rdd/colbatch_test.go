package rdd

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// batchRoundTrip extracts rows into a batch (typed values on) and
// requires boxing back to reproduce the rows exactly — values, dynamic
// types and order.
func batchRoundTrip(t *testing.T, rows []Row) *ColBatch {
	t.Helper()
	b := ExtractBatch(rows, true)
	got := b.Rows()
	if !reflect.DeepEqual(got, rows) || rowsFNV(got) != rowsFNV(rows) {
		t.Fatalf("extract/box round trip differs:\ngot  %v\nwant %v", got, rows)
	}
	return b
}

func TestExtractBatchRoundTrip(t *testing.T) {
	cases := map[string][]Row{
		"int-keys-int-vals": {KV{K: 1, V: 10}, KV{K: 2, V: 20}, KV{K: 1, V: 30}},
		"i64-keys-f64-vals": {KV{K: int64(7), V: 1.5}, KV{K: int64(8), V: 2.5}},
		"str-keys-int-vals": {KV{K: "a", V: 1}, KV{K: "b", V: 2}},
		"str-keys-str-vals": {KV{K: "a", V: "x"}, KV{K: "b", V: "y"}},
		"mixed-keys":        {KV{K: 1, V: 10}, KV{K: "a", V: 20}, KV{K: 2, V: 30}},
		"mixed-values":      {KV{K: 1, V: 10}, KV{K: 2, V: "s"}, KV{K: 3, V: 30}},
		"non-kv":            {1, 2, 3},
		"empty":             {},
		"nil":               nil,
	}
	for name, rows := range cases {
		t.Run(name, func(t *testing.T) {
			batchRoundTrip(t, rows)
			// Keys-only extraction (the shuffle-ingress form for
			// group/join deps) must round-trip identically too.
			b := ExtractBatch(rows, false)
			if got := b.Rows(); !reflect.DeepEqual(got, rows) {
				t.Fatalf("keys-only round trip differs:\ngot  %v\nwant %v", got, rows)
			}
		})
	}
	// Degrade boundary: the typed prefix stops at the first foreign key,
	// everything after aliases the original boxes.
	mixed := []Row{KV{K: 1, V: 10}, KV{K: 2, V: 20}, KV{K: "x", V: 30}, KV{K: 3, V: 40}}
	b := ExtractBatch(mixed, true)
	if b.TypedLen() != 2 || len(b.tail) != 2 {
		t.Fatalf("degrade split = typed %d tail %d, want 2/2", b.TypedLen(), len(b.tail))
	}
}

func TestWrapRowsIsZeroCost(t *testing.T) {
	rows := []Row{KV{K: 1, V: 2}}
	b := WrapRows(rows)
	if got := b.Rows(); &got[0] != &rows[0] {
		t.Fatal("WrapRows.Rows() did not return the original slice")
	}
	if WrapRows(nil).Rows() != nil {
		t.Fatal("WrapRows(nil).Rows() must stay nil (egress nil-semantics)")
	}
}

func TestConcatBatchesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eedcc01))
	mk := func(n int, str bool) []Row {
		rows := make([]Row, n)
		for i := range rows {
			if str {
				rows[i] = KV{K: fmt.Sprintf("k%02d", rng.Intn(30)), V: rng.Intn(100)}
			} else {
				rows[i] = KV{K: rng.Intn(30), V: rng.Intn(100)}
			}
		}
		return rows
	}
	t.Run("same-layout", func(t *testing.T) {
		var segs []*ColBatch
		var want []Row
		for i := 0; i < 4; i++ {
			rows := mk(50, false)
			segs = append(segs, ExtractBatch(rows, true))
			want = append(want, rows...)
		}
		got := ConcatBatches(segs, len(want)).Rows()
		if !reflect.DeepEqual(got, want) {
			t.Fatal("same-layout concat differs from row concat")
		}
	})
	t.Run("mixed-layout", func(t *testing.T) {
		r1, r2, r3 := mk(20, false), mk(20, true), mk(20, false)
		segs := []*ColBatch{ExtractBatch(r1, true), ExtractBatch(r2, true), WrapRows(r3)}
		want := append(append(append([]Row{}, r1...), r2...), r3...)
		got := ConcatBatches(segs, len(want)).Rows()
		if !reflect.DeepEqual(got, want) {
			t.Fatal("mixed-layout concat differs from row concat")
		}
	})
	t.Run("single-segment-zero-copy", func(t *testing.T) {
		seg := ExtractBatch(mk(10, false), true)
		if ConcatBatches([]*ColBatch{seg}, seg.Len()) != seg {
			t.Fatal("single-segment concat must return the segment itself")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if ConcatBatches(nil, 0).Rows() != nil {
			t.Fatal("empty concat must box to nil")
		}
	})
}

func TestBucketBatchMatchesBucketRows(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eedcc02))
	for _, tc := range []struct {
		name string
		rows []Row
	}{
		{"int-keys", func() []Row {
			rows := make([]Row, 4000)
			for i := range rows {
				rows[i] = KV{K: rng.Intn(500), V: rng.Intn(100)}
			}
			return rows
		}()},
		{"str-keys", func() []Row {
			rows := make([]Row, 4000)
			for i := range rows {
				rows[i] = KV{K: fmt.Sprintf("w%03d", rng.Intn(300)), V: float64(i)}
			}
			return rows
		}()},
		{"with-tail", func() []Row {
			rows := make([]Row, 0, 1000)
			for i := 0; i < 900; i++ {
				rows = append(rows, KV{K: rng.Intn(64), V: i})
			}
			for i := 0; i < 100; i++ {
				rows = append(rows, KV{K: [2]int{i % 3, i}, V: i})
			}
			return rows
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, numOut := range []int{1, 7, 32} {
				dep := &ShuffleDep{NumOut: numOut}
				want := dep.BucketRows(tc.rows)
				b := ExtractBatch(tc.rows, true)
				got := dep.BucketBatch(b)
				if len(got) != len(want) {
					t.Fatalf("numOut=%d: %d buckets vs %d", numOut, len(got), len(want))
				}
				for i := range want {
					gr := got[i].Rows()
					if len(gr) == 0 && len(want[i]) == 0 {
						continue
					}
					if !reflect.DeepEqual(gr, want[i]) {
						t.Fatalf("numOut=%d bucket %d differs from row plane", numOut, i)
					}
				}
			}
		})
	}
}

func TestReduceColMatchesRowKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eedcc03))
	intRows := make([]Row, 8000)
	for i := range intRows {
		intRows[i] = KV{K: rng.Intn(300), V: rng.Intn(50)}
	}
	strRows := make([]Row, 8000)
	for i := range strRows {
		strRows[i] = KV{K: fmt.Sprintf("k%03d", rng.Intn(200)), V: rng.Float64() * 1e6}
	}
	mixed := append(append([]Row{}, intRows[:100]...), KV{K: "odd", V: 1})

	if got, want := reduceColInt(ExtractBatch(intRows, true), intSum).Rows(), reduceRowsInt(intRows, intSum); !reflect.DeepEqual(got, want) {
		t.Fatal("reduceColInt differs from reduceRowsInt")
	}
	if got, want := reduceColFloat64(ExtractBatch(strRows, true), f64Sum).Rows(), reduceRowsFloat64(strRows, f64Sum); !reflect.DeepEqual(got, want) {
		t.Fatal("reduceColFloat64 differs from reduceRowsFloat64 (string keys)")
	}
	// A batch with a tail must fall back through the row kernel with
	// identical output.
	if got, want := reduceColInt(ExtractBatch(mixed, true), intSum).Rows(), reduceRowsInt(mixed, intSum); !reflect.DeepEqual(got, want) {
		t.Fatal("reduceColInt tail fallback differs from reduceRowsInt")
	}
}

func TestGroupAndJoinBatchMatchRowPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eedcc04))
	mk := func(n, keys int, str bool) []Row {
		rows := make([]Row, n)
		for i := range rows {
			if str {
				rows[i] = KV{K: fmt.Sprintf("k%02d", rng.Intn(keys)), V: i}
			} else {
				rows[i] = KV{K: rng.Intn(keys), V: i}
			}
		}
		return rows
	}
	for _, str := range []bool{false, true} {
		name := "int"
		if str {
			name = "str"
		}
		t.Run(name, func(t *testing.T) {
			l, r := mk(1500, 40, str), mk(1200, 55, str)
			// Group: batch emit vs the boxed Fn emit.
			gb := groupEmitBatch(groupBatch(ExtractBatch(l, false))).Rows()
			gr := groupEmitBatch(groupBatch(WrapRows(l))).Rows()
			if !reflect.DeepEqual(gb, gr) {
				t.Fatal("groupEmitBatch differs between batch and row ingress")
			}
			// Join: typed probe vs the shared row-plane body.
			want := joinRows(groupRows(l), groupRows(r))
			got := joinBatch(ExtractBatch(l, false), ExtractBatch(r, false)).Rows()
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("joinBatch differs from joinRows")
			}
			// Mixed ingress (one side typed, one side rows) must degrade
			// to the row body with identical output.
			gotMixed := joinBatch(ExtractBatch(l, false), WrapRows(r)).Rows()
			if !reflect.DeepEqual(gotMixed, want) {
				t.Fatal("joinBatch mixed ingress differs from joinRows")
			}
		})
	}
}
