package rdd

import (
	"fmt"
	"reflect"
	"testing"
)

// Unit coverage for the typed aggregation fast paths (agg.go). The
// contract under test: every path — monomorphic int/int64/string,
// generic fallback, and mid-batch migration — emits the same rows as the
// naive reference fold (refFold, reference_test.go) in first-seen key
// order.

func sumMerge(a, b Row) Row { return a.(int) + b.(int) }

func TestAggregateRowsTypedPaths(t *testing.T) {
	cases := []struct {
		name string
		key  func(i int) Row
	}{
		{"int", func(i int) Row { return i % 7 }},
		{"int64", func(i int) Row { return int64(i % 7) }},
		{"string", func(i int) Row { return fmt.Sprintf("k%d", i%7) }},
		{"float64-generic", func(i int) Row { return float64(i%7) / 2 }},
		{"struct-generic", func(i int) Row { return KV{K: i % 7, V: "x"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := make([]Row, 40)
			for i := range rows {
				rows[i] = KV{K: tc.key(i), V: 1}
			}
			got := aggregateRows(rows, nil, sumMerge)
			want := refFold(rows, nil, sumMerge)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("aggregateRows = %v, want %v", got, want)
			}
			// With a create function (combineByKey shape).
			create := func(v Row) Row { return v.(int) * 10 }
			got = aggregateRows(rows, create, sumMerge)
			want = refFold(rows, create, sumMerge)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("with create = %v, want %v", got, want)
			}
		})
	}
}

// TestAggregateRowsMixedBatchMigration interleaves key types so the
// monomorphic path must migrate mid-batch; slots assigned before the
// migration (and therefore the output order) must survive it.
func TestAggregateRowsMixedBatchMigration(t *testing.T) {
	rows := []Row{
		KV{K: 1, V: 1},
		KV{K: 2, V: 1},
		KV{K: "a", V: 1}, // migration point: int index → generic
		KV{K: 1, V: 1},   // existing pre-migration key must be found
		KV{K: int64(3), V: 1},
		KV{K: "a", V: 1},
		KV{K: 2, V: 1},
	}
	got := aggregateRows(rows, nil, sumMerge)
	want := []Row{
		KV{K: 1, V: 2},
		KV{K: 2, V: 2},
		KV{K: "a", V: 2},
		KV{K: int64(3), V: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mixed batch = %v, want %v", got, want)
	}
}

// TestAggregateRowsEmptyAndSingle pins the edge shapes.
func TestAggregateRowsEmptyAndSingle(t *testing.T) {
	if got := aggregateRows(nil, nil, sumMerge); len(got) != 0 {
		t.Errorf("empty input = %v", got)
	}
	got := aggregateRows([]Row{KV{K: 5, V: 9}}, nil, sumMerge)
	if !reflect.DeepEqual(got, []Row{KV{K: 5, V: 9}}) {
		t.Errorf("single row = %v", got)
	}
}

// TestGroupKVMatchesAdd checks the two-pass grouped fill — groupRows,
// including its generic-key path (degradeGroup from row 0) — against the
// incremental naive grouping on every key type, including a mixed batch
// and a key type the columnar tables do not cover.
func TestGroupKVMatchesAdd(t *testing.T) {
	keysets := map[string]func(i int) Row{
		"int":    func(i int) Row { return i % 5 },
		"string": func(i int) Row { return fmt.Sprintf("k%d", i%5) },
		"mixed": func(i int) Row {
			if i%2 == 0 {
				return i % 5
			}
			return fmt.Sprintf("k%d", i%5)
		},
		"float64": func(i int) Row { return float64(i%5) / 2 },
	}
	for name, key := range keysets {
		t.Run(name, func(t *testing.T) {
			rows := make([]Row, 30)
			for i := range rows {
				rows[i] = KV{K: key(i), V: i}
			}
			order, vals, slots := refGroup(rows)
			got := groupRows(rows)
			if !reflect.DeepEqual(got.order, order) {
				t.Errorf("order = %v, want %v", got.order, order)
			}
			if !reflect.DeepEqual(got.vals, vals) {
				t.Errorf("vals = %v, want %v", got.vals, vals)
			}
			for _, k := range append(append([]Row{}, order...), 99, "absent") {
				gs, gok := got.look(k)
				ws, wok := slots[k]
				if gs != ws || gok != wok {
					t.Errorf("look(%v) = %d,%v, want %d,%v", k, gs, gok, ws, wok)
				}
			}
		})
	}
	g := groupRows(nil)
	if len(g.order) != 0 || len(g.vals) != 0 {
		t.Errorf("groupRows(nil) = %v/%v", g.order, g.vals)
	}
}

// TestGroupKVPinnedCaps verifies the shared-backing-array contract of
// the grouped fill on both the columnar and the generic-map path:
// appending to one emitted group must copy, never clobber the next
// group's rows.
func TestGroupKVPinnedCaps(t *testing.T) {
	for _, keys := range [][2]Row{{"a", "b"}, {1.5, 2.5}} {
		rows := []Row{
			KV{K: keys[0], V: 1}, KV{K: keys[0], V: 2},
			KV{K: keys[1], V: 3}, KV{K: keys[1], V: 4},
		}
		g := groupRows(rows)
		if len(g.vals) != 2 {
			t.Fatalf("%v: groups = %d", keys, len(g.vals))
		}
		for i, v := range g.vals {
			if len(v) != cap(v) {
				t.Errorf("%v: group %d: len %d != cap %d (append would clobber)", keys, i, len(v), cap(v))
			}
		}
		_ = append(g.vals[0], 99)
		if !reflect.DeepEqual(g.vals[1], []Row{3, 4}) {
			t.Errorf("%v: append to group 0 clobbered group 1: %v", keys, g.vals[1])
		}
	}
}

// TestAggHintClamp pins the preallocation clamp.
func TestAggHintClamp(t *testing.T) {
	if aggHint(10) != 10 || aggHint(aggHintCap) != aggHintCap || aggHint(aggHintCap+1) != aggHintCap {
		t.Error("aggHint clamp broken")
	}
}
