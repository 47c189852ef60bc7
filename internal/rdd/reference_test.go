package rdd

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// A naive reference for the keyed operators. Every keyed operator must
// emit keys in first-seen order and fold each key's values in arrival
// order; that contract is what makes a recomputed partition
// byte-identical to the one a revocation destroyed. The implementations
// below uphold it the obvious way — a map[Row]int from key to slot, one
// append per new key, one fold per row — and share nothing with the
// production kernels: no aggregateRows, no groupRows, no slot tables.
// Their shuffles route through an explicit Partitioner (PartitionOf on
// the key), which bypasses the typed bucketing fast paths while landing
// every row in the same bucket, and combine map-side with the same naive
// fold, so float association order matches the real operators exactly.

// refFold folds KV rows per key in first-seen key order: create turns a
// key's first value into its accumulator (nil for identity), merge folds
// every later value in, in arrival order.
func refFold(rows []Row, create func(v Row) Row, merge func(acc, v Row) Row) []Row {
	slots := make(map[Row]int)
	var order, acc []Row
	for _, r := range rows {
		kv := r.(KV)
		if s, ok := slots[kv.K]; ok {
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
	out := make([]Row, len(order))
	for i, k := range order {
		out[i] = KV{K: k, V: acc[i]}
	}
	return out
}

// refGroup groups KV rows by key: keys in first-seen order, each key's
// values in arrival order, and the key → slot map for cross-side probes.
func refGroup(rows []Row) (order []Row, vals [][]Row, slots map[Row]int) {
	slots = make(map[Row]int)
	for _, r := range rows {
		kv := r.(KV)
		s, ok := slots[kv.K]
		if !ok {
			s = len(order)
			slots[kv.K] = s
			order = append(order, kv.K)
			vals = append(vals, nil)
		}
		vals[s] = append(vals[s], kv.V)
	}
	return order, vals, slots
}

// refDep is a reference shuffle: explicit PartitionOf routing and an
// optional naive map-side combine.
func refDep(p *RDD, parts int, combine func(rows []Row) []Row) *ShuffleDep {
	return &ShuffleDep{
		P: p, NumOut: parts, Combine: combine,
		Partitioner: func(r Row, n int) int { return PartitionOf(r.(KV).K, n) },
	}
}

func refReduceByKey(r *RDD, name string, parts int, f func(a, b Row) Row) *RDD {
	fold := func(rows []Row) []Row { return refFold(rows, nil, f) }
	return r.ctx.NewShuffleRDD(name, parts, r.RowBytes, refDep(r, parts, fold),
		func(_ int, in [][]Row) []Row { return fold(in[0]) })
}

func refCombineByKey(r *RDD, name string, parts int, create func(v Row) Row, mergeValue, mergeCombiners func(a, b Row) Row) *RDD {
	dep := refDep(r, parts, func(rows []Row) []Row { return refFold(rows, create, mergeValue) })
	return r.ctx.NewShuffleRDD(name, parts, r.RowBytes, dep,
		func(_ int, in [][]Row) []Row { return refFold(in[0], nil, mergeCombiners) })
}

func refGroupByKey(r *RDD, name string, parts int) *RDD {
	return r.ctx.NewShuffleRDD(name, parts, r.RowBytes, refDep(r, parts, nil),
		func(_ int, in [][]Row) []Row {
			order, vals, _ := refGroup(in[0])
			out := make([]Row, len(order))
			for i, k := range order {
				out[i] = KV{K: k, V: vals[i]}
			}
			return out
		})
}

func refPartitionBy(r *RDD, name string, parts int) *RDD {
	return r.ctx.NewShuffleRDD(name, parts, r.RowBytes, refDep(r, parts, nil),
		func(_ int, in [][]Row) []Row { return in[0] })
}

// refTwoSided registers a two-input shuffle RDD over reference deps.
func refTwoSided(r *RDD, name string, other *RDD, parts int, fn func(l, r []Row) []Row) *RDD {
	return r.ctx.register(&RDD{
		Name: name, NumParts: parts, RowBytes: r.RowBytes + other.RowBytes,
		Deps: []Dependency{refDep(r, parts, nil), refDep(other, parts, nil)},
		Fn:   func(_ int, in [][]Row) []Row { return fn(in[0], in[1]) },
	})
}

func refJoin(r *RDD, name string, other *RDD, parts int) *RDD {
	return refTwoSided(r, name, other, parts, func(l, rr []Row) []Row {
		lo, lv, _ := refGroup(l)
		_, rv, rs := refGroup(rr)
		var out []Row
		for i, k := range lo {
			if j, ok := rs[k]; ok {
				for _, a := range lv[i] {
					for _, b := range rv[j] {
						out = append(out, KV{K: k, V: JoinPair{L: a, R: b}})
					}
				}
			}
		}
		return out
	})
}

func refCoGroup(r *RDD, name string, other *RDD, parts int) *RDD {
	return refTwoSided(r, name, other, parts, func(l, rr []Row) []Row {
		lo, lv, ls := refGroup(l)
		ro, rv, rs := refGroup(rr)
		var out []Row
		for i, k := range lo {
			groups := [2][]Row{lv[i], nil}
			if j, ok := rs[k]; ok {
				groups[1] = rv[j]
			}
			out = append(out, KV{K: k, V: groups})
		}
		for j, k := range ro {
			if _, ok := ls[k]; !ok {
				out = append(out, KV{K: k, V: [2][]Row{nil, rv[j]}})
			}
		}
		return out
	})
}

// keyedOps is one implementation of the keyed operator surface:
// realKeyedOps are the production operators, refKeyedOps the naive
// reference with the same signatures.
type keyedOps struct {
	reduceByKey        func(r *RDD, name string, parts int, f func(a, b Row) Row) *RDD
	reduceByKeyInt     func(r *RDD, name string, parts int, f func(a, b int) int) *RDD
	reduceByKeyFloat64 func(r *RDD, name string, parts int, f func(a, b float64) float64) *RDD
	combineByKey       func(r *RDD, name string, parts int, create func(v Row) Row, mergeValue, mergeCombiners func(a, b Row) Row) *RDD
	groupByKey         func(r *RDD, name string, parts int) *RDD
	partitionBy        func(r *RDD, name string, parts int) *RDD
	join               func(r *RDD, name string, other *RDD, parts int) *RDD
	coGroup            func(r *RDD, name string, other *RDD, parts int) *RDD
}

var realKeyedOps = keyedOps{
	reduceByKey:        (*RDD).ReduceByKey,
	reduceByKeyInt:     (*RDD).ReduceByKeyInt,
	reduceByKeyFloat64: (*RDD).ReduceByKeyFloat64,
	combineByKey:       (*RDD).CombineByKey,
	groupByKey:         (*RDD).GroupByKey,
	partitionBy:        (*RDD).PartitionBy,
	join:               (*RDD).Join,
	coGroup:            (*RDD).CoGroup,
}

var refKeyedOps = keyedOps{
	reduceByKey: refReduceByKey,
	reduceByKeyInt: func(r *RDD, name string, parts int, f func(a, b int) int) *RDD {
		return refReduceByKey(r, name, parts, func(a, b Row) Row { return f(a.(int), b.(int)) })
	},
	reduceByKeyFloat64: func(r *RDD, name string, parts int, f func(a, b float64) float64) *RDD {
		return refReduceByKey(r, name, parts, func(a, b Row) Row { return f(a.(float64), b.(float64)) })
	},
	combineByKey: refCombineByKey,
	groupByKey:   refGroupByKey,
	partitionBy:  refPartitionBy,
	join:         refJoin,
	coGroup:      refCoGroup,
}

// Source key kinds of the fuzz programs. keyMixed draws every row's key
// type independently, so batches degrade mid-partition from whichever
// type their first row had.
const (
	keyInt = iota
	keyI64
	keyStr
	keyMixed
	numKeyKinds
)

// fuzzKey derives a key of the given kind from h: one of 12 keys per
// type, and for keyMixed also the row's key type — int, int64, string,
// float64 or a composite array.
func fuzzKey(kind int, h uint64) Row {
	k := int(h % 12)
	if kind == keyMixed {
		switch t := int(h / 12 % 5); t {
		case 3:
			return float64(k) / 2
		case 4:
			return [2]int{k % 3, k}
		default:
			kind = t
		}
	}
	switch kind {
	case keyInt:
		return k
	case keyI64:
		return int64(k)
	default:
		return fmt.Sprintf("k%02d", k)
	}
}

// fuzzValue draws an int or a float64 whose magnitude makes float
// addition order-sensitive, so a changed fold order shows up in the bits.
func fuzzValue(rng *rand.Rand) Row {
	if rng.Intn(3) == 0 {
		return rng.Float64() * float64(uint64(1)<<uint(rng.Intn(40)))
	}
	return rng.Intn(100)
}

// valueInt / valueFloat coerce any value a fuzz program produces into
// the typed operators' value domain.
func valueInt(v Row) int {
	switch x := v.(type) {
	case int:
		return x
	case float64:
		return int(x) % 1000
	case []Row:
		return len(x)
	case [2][]Row:
		return 10*len(x[0]) + len(x[1])
	case JoinPair:
		return valueInt(x.L) + valueInt(x.R)
	}
	return 1
}

func valueFloat(v Row) float64 {
	if f, ok := v.(float64); ok {
		return f
	}
	return float64(valueInt(v)) / 4
}

// firstOrSum adds same-typed numbers and keeps the accumulator
// otherwise, so mixed value types never panic and the fold order still
// shows in the output.
func firstOrSum(a, b Row) Row {
	switch x := a.(type) {
	case int:
		if y, ok := b.(int); ok {
			return x + y
		}
	case float64:
		if y, ok := b.(float64); ok {
			return x + y
		}
	}
	return a
}

func listCreate(v Row) Row { return []Row{v} }

func listAppend(acc, v Row) Row {
	l := acc.([]Row)
	return append(l[:len(l):len(l)], v)
}

func listConcat(a, b Row) Row {
	l := a.([]Row)
	return append(l[:len(l):len(l)], b.([]Row)...)
}

// maxCells bounds how many values any node of a fuzz program may hold
// (rows, plus the values nested inside grouped and joined rows), so
// unions of unions and joins of joins cannot blow up an input.
const maxCells = 1 << 14

// buildKeyedProgram decodes data into a lineage DAG over ops: one source
// per key kind, then one operator per 4 input bytes (operator, input,
// second input, partition count), at most 12 of them. It returns the
// union of every operator's output, so each intermediate result is
// compared. Both implementations see the same sources and the same
// decoded program; only the keyed operators differ.
func buildKeyedProgram(ops keyedOps, data []byte) *RDD {
	c := NewContext(3)
	type node struct {
		r     *RDD
		cells int // upper bound on the values the node holds
	}
	var pool []node
	for kind := 0; kind < numKeyKinds; kind++ {
		kind, parts := kind, 1+kind%3
		src := c.Parallelize(fmt.Sprintf("src%d", kind), parts, 16, func(part int) []Row {
			rng := rand.New(rand.NewSource(int64(kind*131 + part)))
			rows := make([]Row, 12+rng.Intn(24))
			for i := range rows {
				rows[i] = KV{K: fuzzKey(kind, rng.Uint64()), V: fuzzValue(rng)}
			}
			return rows
		})
		pool = append(pool, node{r: src, cells: parts * 36})
	}
	var outs []*RDD
	for i := 0; i+3 < len(data) && len(outs) < 12; i += 4 {
		in := pool[int(data[i+1])%len(pool)]
		other := pool[int(data[i+2])%len(pool)]
		parts := 1 + int(data[i+3])%4
		name := fmt.Sprintf("op%d", len(outs))
		r, cells := in.r, in.cells
		switch data[i] % 10 {
		case 0:
			r = ops.reduceByKey(r, name, parts, firstOrSum)
		case 1:
			ints := r.MapValues(name+":int", func(v Row) Row { return valueInt(v) })
			r = ops.reduceByKeyInt(ints, name, parts, intSum)
		case 2:
			floats := r.MapValues(name+":f64", func(v Row) Row { return valueFloat(v) })
			r = ops.reduceByKeyFloat64(floats, name, parts, f64Sum)
		case 3:
			r = ops.combineByKey(r, name, parts, listCreate, listAppend, listConcat)
		case 4:
			r = ops.groupByKey(r, name, parts)
		case 5:
			r = ops.partitionBy(r, name, parts)
		case 6:
			// Every output pair holds one value from each side.
			if cells = 2 * in.cells * other.cells; cells <= maxCells {
				r = ops.join(r, name, other.r, parts)
			} else {
				r, cells = ops.coGroup(r, name, other.r, parts), in.cells+other.cells
			}
		case 7:
			r, cells = ops.coGroup(r, name, other.r, parts), in.cells+other.cells
		case 8:
			r, cells = r.Union(name, other.r), in.cells+other.cells
		default:
			// Re-key onto another key type: the next keyed operator
			// sees a different (or, after a union, mixed) key column.
			kind := int(data[i+3]) % numKeyKinds
			r = r.Map(name, func(row Row) Row {
				kv := row.(KV)
				return KV{K: fuzzKey(kind, HashKey(kv.K)), V: kv.V}
			})
		}
		if cells > maxCells {
			continue
		}
		pool = append(pool, node{r: r, cells: cells})
		outs = append(outs, r)
	}
	if len(outs) == 0 {
		return pool[0].r
	}
	all := outs[0]
	for i, r := range outs[1:] {
		all = all.Union(fmt.Sprintf("all%d", i), r)
	}
	return all
}

// nilIfEmpty treats empty and nil partitions alike: operators differ in
// whether an empty output is allocated, which no consumer can observe.
func nilIfEmpty(rows []Row) []Row {
	if len(rows) == 0 {
		return nil
	}
	return rows
}

// FuzzKeyedOpsMatchReference builds the same random lineage DAG twice —
// once with the production keyed operators, once with the naive
// reference — evaluates both with EvalLocal, and requires every
// partition to be value-identical (reflect.DeepEqual) and
// FNV-identical. The seeds run every operator once on every source key
// kind, then a few chains that mix key types across unions and re-keys.
func FuzzKeyedOpsMatchReference(f *testing.F) {
	for op := byte(0); op < 10; op++ {
		for src := byte(0); src < numKeyKinds; src++ {
			f.Add([]byte{op, src, (src + 1) % numKeyKinds, op + src})
		}
	}
	f.Add([]byte{8, 0, 2, 0, 4, 4, 0, 2, 6, 5, 1, 3, 7, 6, 3, 1}) // union int+string, group, join, coGroup
	f.Add([]byte{9, 0, 0, 3, 1, 4, 0, 1, 2, 5, 0, 2, 3, 6, 0, 0}) // re-key to mixed, then typed reduces
	f.Add([]byte{6, 0, 1, 2, 6, 4, 4, 1, 6, 5, 2, 3, 0, 6, 6, 2}) // joins of joins fall back to coGroup
	f.Add([]byte{8, 1, 3, 0, 2, 4, 0, 3, 4, 5, 5, 1, 1, 6, 6, 0}) // int64 ∪ mixed: degrade in every kernel
	f.Fuzz(func(t *testing.T, data []byte) {
		got := EvalLocal(buildKeyedProgram(realKeyedOps, data))
		want := EvalLocal(buildKeyedProgram(refKeyedOps, data))
		if len(got) != len(want) {
			t.Fatalf("partition counts %d vs %d", len(got), len(want))
		}
		for p := range want {
			g, w := nilIfEmpty(got[p]), nilIfEmpty(want[p])
			if !reflect.DeepEqual(g, w) || rowsFNV(g) != rowsFNV(w) {
				t.Fatalf("partition %d differs from the reference:\ngot  %#v\nwant %#v", p, g, w)
			}
		}
	})
}
