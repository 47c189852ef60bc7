package exec

import (
	"fmt"
	"testing"

	"flint/internal/rdd"
)

// Data-plane benchmarks for the shuffle hot paths: the reduce-side fetch
// (run once per reduce task, and again for every post-revocation
// recomputation) and the map-side bucketing pass.

func benchTracker(mapParts, numOut, rowsPerBucket int) (*shuffleTracker, *rdd.ShuffleDep) {
	c := rdd.NewContext(2)
	src := c.Parallelize("src", mapParts, 10, func(part int) []rdd.Row { return nil })
	dep := &rdd.ShuffleDep{P: src, NumOut: numOut}
	tr := newShuffleTracker()
	for mp := 0; mp < mapParts; mp++ {
		buckets := make([][]rdd.Row, numOut)
		for b := range buckets {
			rows := make([]rdd.Row, rowsPerBucket)
			for i := range rows {
				rows[i] = rdd.KV{K: mp*rowsPerBucket + i, V: b}
			}
			buckets[b] = rows
		}
		tr.putOutput(dep, mp, mp%4, wrapBuckets(buckets))
	}
	return tr, dep
}

// BenchmarkShuffleFetch measures gathering one reduce partition's bucket
// from every map output and materializing the concatenated row slice.
func BenchmarkShuffleFetch(b *testing.B) {
	cases := []struct {
		name                         string
		mapParts, numOut, rowsPerBkt int
	}{
		{"64maps-16buckets", 64, 16, 64},
		{"256maps-32buckets", 256, 32, 16},
	}
	for _, c := range cases {
		tr, dep := benchTracker(c.mapParts, c.numOut, c.rowsPerBkt)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got := tr.fetch(dep, i%c.numOut, 0).materialize()
				if got.Len() != c.mapParts*c.rowsPerBkt {
					b.Fatalf("fetched %d rows", got.Len())
				}
			}
		})
	}
}

func benchBucketRows(n int, str bool) []rdd.Row {
	rows := make([]rdd.Row, n)
	for i := range rows {
		if str {
			rows[i] = rdd.KV{K: fmt.Sprintf("key-%06d", (i*2654435761)%4096), V: i}
		} else {
			rows[i] = rdd.KV{K: (i * 2654435761) % 4096, V: i}
		}
	}
	return rows
}

// BenchmarkBucketing measures the map-side split of one partition's rows
// into NumOut shuffle buckets. Base cases run the fused columnar index
// pass; -par4 variants chunk the columnar pass across four goroutines
// (the idle-worker recruitment of parbucket.go).
func BenchmarkBucketing(b *testing.B) {
	c := rdd.NewContext(2)
	src := c.Parallelize("src", 1, 10, func(part int) []rdd.Row { return nil })
	for _, tc := range []struct {
		name   string
		numOut int
		str    bool
	}{
		{"int-16buckets", 16, false},
		{"int-64buckets", 64, false},
		{"string-16buckets", 16, true},
	} {
		dep := &rdd.ShuffleDep{P: src, NumOut: tc.numOut}
		rows := benchBucketRows(1<<16, tc.str)
		body := func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buckets := dep.BucketRows(rows)
				if len(buckets[0]) == 0 {
					b.Fatal("empty bucket")
				}
			}
		}
		b.Run(tc.name, body)
		b.Run(tc.name+"-par4", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buckets := parallelBuckets(dep, rows, 4)
				if len(buckets[0]) == 0 {
					b.Fatal("empty bucket")
				}
			}
		})
		// -col scatters the typed key column directly (the carry plane's
		// map-side path); -col-par4 is the same scatter chunked across 4
		// goroutines via the roll-up scheme.
		batch := rdd.ExtractBatch(rows, true)
		b.Run(tc.name+"-col", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buckets := dep.BucketBatch(batch)
				if buckets[0].Len() == 0 {
					b.Fatal("empty bucket")
				}
			}
		})
		b.Run(tc.name+"-col-par4", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buckets := parallelBucketBatch(dep, batch, 4)
				if buckets[0].Len() == 0 {
					b.Fatal("empty bucket")
				}
			}
		})
	}
}
