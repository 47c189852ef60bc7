package rdd

import (
	"fmt"
	"testing"
)

// Deterministic KV generators for the data-plane benchmarks. Skewed
// variants send 80% of rows to a small hot key set, mimicking the power
// law key distributions of the paper's workloads (PageRank in-degrees).

func benchIntKV(n, keys int) []Row {
	rows := make([]Row, n)
	for i := 0; i < n; i++ {
		rows[i] = KV{K: (i * 2654435761) % keys, V: 1}
	}
	return rows
}

func benchIntKVSkewed(n, keys int) []Row {
	hot := keys / 16
	if hot == 0 {
		hot = 1
	}
	rows := make([]Row, n)
	for i := 0; i < n; i++ {
		if i%5 != 0 {
			rows[i] = KV{K: (i * 2654435761) % hot, V: 1}
		} else {
			rows[i] = KV{K: hot + (i*40503)%(keys-hot), V: 1}
		}
	}
	return rows
}

func benchStrKV(n, keys int) []Row {
	dict := make([]string, keys)
	for k := range dict {
		dict[k] = fmt.Sprintf("key-%06d", k)
	}
	rows := make([]Row, n)
	for i := 0; i < n; i++ {
		rows[i] = KV{K: dict[(i*2654435761)%keys], V: 1}
	}
	return rows
}

func benchFloatKV(n, keys int) []Row {
	rows := make([]Row, n)
	for i := 0; i < n; i++ {
		rows[i] = KV{K: (i * 2654435761) % keys, V: 0.85 / float64(1+i%32)}
	}
	return rows
}

func sumReduce(a, b Row) Row { return a.(int) + b.(int) }

func sumReduceF(a, b Row) Row { return a.(float64) + b.(float64) }

// BenchmarkReduceByKey exercises the aggregation body that every
// int-sum ReduceByKey task runs (wordcount's counts stage, lineage
// recomputation after revocations). The base cases measure the columnar
// typed-value kernel the workloads now use (ReduceByKeyInt); the -row
// variants measure the boxed fold of the generic ReduceByKey operator
// (aggregateTyped) on the same rows.
func BenchmarkReduceByKey(b *testing.B) {
	const n = 1 << 16
	cases := []struct {
		name string
		rows []Row
	}{
		{"int-uniform", benchIntKV(n, 4096)},
		{"int-skewed", benchIntKVSkewed(n, 4096)},
		{"string-uniform", benchStrKV(n, 4096)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := reduceRowsInt(c.rows, func(a, b int) int { return a + b })
				if len(out) == 0 {
					b.Fatal("empty reduction")
				}
			}
		})
		b.Run(c.name+"-row", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := reduceRows(c.rows, sumReduce)
				if len(out) == 0 {
					b.Fatal("empty reduction")
				}
			}
		})
		// -col measures the carry plane: the input arrives as a typed
		// batch (as it does from a column-carrying shuffle fetch) and the
		// output stays a batch — no boxing at either end.
		batch := ExtractBatch(c.rows, true)
		b.Run(c.name+"-col", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := reduceColInt(batch, func(a, b int) int { return a + b })
				if out.Len() == 0 {
					b.Fatal("empty reduction")
				}
			}
		})
	}
	// float64-sum is the reducer PageRank's rank contributions and
	// KMeans' cost stage run every iteration. On the generic path every
	// merged pair boxes a fresh float64; the typed column folds unboxed
	// and boxes once per key at emission.
	frows := benchFloatKV(n, 4096)
	b.Run("float64-uniform", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := reduceRowsFloat64(frows, func(a, b float64) float64 { return a + b })
			if len(out) == 0 {
				b.Fatal("empty reduction")
			}
		}
	})
	b.Run("float64-uniform-row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := reduceRows(frows, sumReduceF)
			if len(out) == 0 {
				b.Fatal("empty reduction")
			}
		}
	})
	fbatch := ExtractBatch(frows, true)
	b.Run("float64-uniform-col", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := reduceColFloat64(fbatch, func(a, b float64) float64 { return a + b })
			if out.Len() == 0 {
				b.Fatal("empty reduction")
			}
		}
	})
}

// BenchmarkJoin exercises the reduce-side join body: aggregate both
// inputs by key, emit the cross product per key. Base cases run the
// row-plane Fn over the columnar grouping kernels.
func BenchmarkJoin(b *testing.B) {
	const n = 1 << 14
	build := func(left, right []Row) *RDD {
		ctx := NewContext(4)
		l := ctx.Parallelize("l", 1, 8, func(int) []Row { return left })
		r := ctx.Parallelize("r", 1, 8, func(int) []Row { return right })
		return l.Join("j", r, 1)
	}
	cases := []struct {
		name        string
		left, right []Row
	}{
		{"int-uniform", benchIntKV(n, 2048), benchIntKV(n/2, 2048)},
		{"int-skewed", benchIntKVSkewed(n, 2048), benchIntKV(n/2, 2048)},
		{"string-uniform", benchStrKV(n, 2048), benchStrKV(n/2, 2048)},
	}
	for _, c := range cases {
		j := build(c.left, c.right)
		inputs := [][]Row{c.left, c.right}
		body := func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := j.Fn(0, inputs)
				if len(out) == 0 {
					b.Fatal("empty join")
				}
			}
		}
		b.Run(c.name, body)
		// -col measures the carry plane: both inputs arrive as typed
		// key-column batches (the shuffle-ingress form ExtractBatch
		// produces for join deps) and the output stays a batch.
		batchIns := []*ColBatch{ExtractBatch(c.left, false), ExtractBatch(c.right, false)}
		b.Run(c.name+"-col", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := j.ColFn(0, batchIns)
				if out.Len() == 0 {
					b.Fatal("empty join")
				}
			}
		})
	}
}
