package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"flint/internal/rdd"
	"flint/internal/simclock"
)

// randomDAG builds a random RDD program from a seeded generator: a mix of
// narrow transformations, unions, and every keyed shuffle operator —
// generic and typed-value reduces, group, join, coGroup, partitionBy —
// over int- and string-keyed (and, after unions, mixed) rows from a
// couple of sources. Every operation is deterministic, so rdd.EvalLocal
// is an exact oracle for the engine. The engine runs the column plane
// (each operator's ColFn and CombineCol) while EvalLocal runs the row
// plane (Fn and Combine), so the oracle cross-checks the two.
func randomDAG(seed int64) *rdd.RDD {
	rng := rand.New(rand.NewSource(seed))
	c := rdd.NewContext(4)
	mkSource := func(id int) *rdd.RDD {
		n := 100 + rng.Intn(300)
		parts := 2 + rng.Intn(5)
		return c.Parallelize(fmt.Sprintf("src%d", id), parts, 64, func(part int) []rdd.Row {
			var out []rdd.Row
			for i := part; i < n; i += parts {
				out = append(out, i*(id+1))
			}
			return out
		})
	}
	pool := []*rdd.RDD{mkSource(0), mkSource(1)}
	keyed := func(r *rdd.RDD, tag int) *rdd.RDD {
		return r.Map(fmt.Sprintf("kv%d", tag), func(x rdd.Row) rdd.Row {
			if kv, ok := x.(rdd.KV); ok {
				return kv
			}
			return rdd.KV{K: x.(int) % 13, V: 1}
		})
	}
	// intValued keys r and coerces every value to an int, the value
	// domain ReduceByKeyInt promises its kernels.
	intValued := func(r *rdd.RDD, tag int) *rdd.RDD {
		return keyed(r, tag).MapValues(fmt.Sprintf("int%d", tag), func(v rdd.Row) rdd.Row { return intOf(v) })
	}
	sum := func(a, b rdd.Row) rdd.Row {
		av, aok := a.(int)
		bv, bok := b.(int)
		if aok && bok {
			return av + bv
		}
		return a
	}
	ops := 3 + rng.Intn(8)
	for i := 0; i < ops; i++ {
		r := pool[rng.Intn(len(pool))]
		name := func(op string) string { return fmt.Sprintf("%s%d", op, i) }
		var next *rdd.RDD
		switch rng.Intn(12) {
		case 0:
			next = r.Map(name("map"), func(x rdd.Row) rdd.Row {
				if kv, ok := x.(rdd.KV); ok {
					return rdd.KV{K: kv.K, V: kv.V}
				}
				return x.(int) + 1
			})
		case 1:
			next = r.Filter(name("filter"), func(x rdd.Row) bool {
				if kv, ok := x.(rdd.KV); ok {
					return rdd.HashKey(kv.K)%3 != 0
				}
				return x.(int)%3 != 0
			})
		case 2:
			other := pool[rng.Intn(len(pool))]
			next = r.Union(name("union"), other)
		case 3:
			next = keyed(r, i).ReduceByKey(name("reduce"), 2+rng.Intn(4), sum)
		case 4:
			if rng.Intn(2) == 0 {
				next = r.Persist()
			} else {
				next = r.Map(name("cachein"), func(x rdd.Row) rdd.Row { return x }).Persist()
			}
		case 5:
			other := keyed(pool[rng.Intn(len(pool))], i+100)
			next = keyed(r, i).Join(name("join"), other, 2+rng.Intn(3))
		case 6:
			next = intValued(r, i).ReduceByKeyInt(name("reduceInt"), 2+rng.Intn(4), func(a, b int) int { return a + b })
		case 7:
			// Tenths are inexact in binary, so a fold that associates
			// differently from the row plane shows in the float bits.
			tenths := intValued(r, i).MapValues(name("f64"), func(v rdd.Row) rdd.Row { return float64(v.(int)) / 10 })
			next = tenths.ReduceByKeyFloat64(name("reduceF64"), 2+rng.Intn(4), func(a, b float64) float64 { return a + b })
		case 8:
			next = keyed(r, i).GroupByKey(name("group"), 2+rng.Intn(4))
		case 9:
			other := keyed(pool[rng.Intn(len(pool))], i+100)
			next = keyed(r, i).CoGroup(name("cogroup"), other, 2+rng.Intn(3))
		case 10:
			next = keyed(r, i).PartitionBy(name("partition"), 2+rng.Intn(4))
		default:
			// String keys: a union with int-keyed rows then hands the
			// next keyed operator a mixed-key batch.
			next = keyed(r, i).Map(name("strkey"), func(x rdd.Row) rdd.Row {
				kv := x.(rdd.KV)
				return rdd.KV{K: fmt.Sprintf("s%d", rdd.HashKey(kv.K)%17), V: kv.V}
			})
		}
		pool = append(pool, next)
	}
	// Final target: count-friendly reduce so results compare cheaply but
	// still exercise rows.
	return keyed(pool[len(pool)-1], 999).ReduceByKey("final", 3, sum)
}

// intOf coerces any value a randomDAG operator emits to an int.
func intOf(v rdd.Row) int {
	switch x := v.(type) {
	case int:
		return x
	case float64:
		return int(x)
	case []rdd.Row:
		return len(x)
	case [2][]rdd.Row:
		return 10*len(x[0]) + len(x[1])
	case rdd.JoinPair:
		return intOf(x.L) + intOf(x.R)
	}
	return 1
}

// render renders rows in delivery order.
func render(rows []rdd.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	return out
}

// canonicalize renders rows order-insensitively.
func canonicalize(rows []rdd.Row) []string {
	out := render(rows)
	sort.Strings(out)
	return out
}

// TestFuzzEngineMatchesOracle runs randomly generated DAGs on the engine
// under randomly scheduled revocations and asserts bit-for-bit agreement
// with the local evaluator, row for row in delivery order. This is the
// repository's core correctness property: failures never change answers.
func TestFuzzEngineMatchesOracle(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(trial) * 7919
		target := randomDAG(seed)
		want := render(rdd.CollectLocal(target))

		rng := rand.New(rand.NewSource(seed + 1))
		tb := checked(MustTestbed(TestbedOpts{Nodes: 3 + rng.Intn(4)}))
		// Up to three revocation events at random times early in the run.
		for e := 0; e < rng.Intn(4); e++ {
			at := 1 + rng.Float64()*120
			k := 1 + rng.Intn(2)
			tb.RevokeNodes(at, k, true)
		}
		res, err := tb.Engine.RunJob(target, ActionCollect)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := render(res.Rows)
		if len(got) != len(want) {
			t.Fatalf("trial %d: row counts %d vs %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: row %d differs:\n  engine %s\n  oracle %s", trial, i, got[i], want[i])
			}
		}
		// And the run must terminate with a sane clock.
		if res.Latency() <= 0 || res.Latency() > simclock.Hours(100) {
			t.Fatalf("trial %d: suspicious latency %v", trial, res.Latency())
		}
	}
}

// TestFuzzWorkerWidthInvariance is the property form of the parallel
// execution contract: for random DAGs under random revocation schedules,
// a Workers=1 engine and a Workers=8 engine must agree on everything —
// delivered rows in delivery order, the full JobStats, the engine's
// counters, and the virtual makespan.
func TestFuzzWorkerWidthInvariance(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 6
	}
	type runOut struct {
		rows  []string
		stats JobStats
		snap  Metrics
		lat   float64
	}
	runOne := func(trial int, workers int) runOut {
		seed := int64(trial)*15485863 + 11
		// Rebuild the DAG and the revocation schedule from the seed so the
		// two runs share exactly one variable: the pool width.
		target := randomDAG(seed)
		rng := rand.New(rand.NewSource(seed + 1))
		tb := checked(MustTestbed(TestbedOpts{Nodes: 3 + rng.Intn(4), Workers: workers}))
		for e := 0; e < rng.Intn(4); e++ {
			at := 1 + rng.Float64()*120
			k := 1 + rng.Intn(2)
			tb.RevokeNodes(at, k, true)
		}
		res, err := tb.Engine.RunJob(target, ActionCollect)
		if err != nil {
			t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
		}
		return runOut{rows: render(res.Rows), stats: res.Stats, snap: tb.Engine.Snapshot(), lat: res.Latency()}
	}
	for trial := 0; trial < trials; trial++ {
		serial := runOne(trial, 1)
		wide := runOne(trial, 8)
		if len(serial.rows) != len(wide.rows) {
			t.Fatalf("trial %d: row counts %d vs %d", trial, len(serial.rows), len(wide.rows))
		}
		for i := range serial.rows {
			if serial.rows[i] != wide.rows[i] {
				t.Fatalf("trial %d: delivery-order row %d differs:\n  w1 %s\n  w8 %s",
					trial, i, serial.rows[i], wide.rows[i])
			}
		}
		if serial.stats != wide.stats {
			t.Fatalf("trial %d: JobStats differ:\n  w1 %+v\n  w8 %+v", trial, serial.stats, wide.stats)
		}
		if serial.snap != wide.snap {
			t.Fatalf("trial %d: engine counters differ:\n  w1 %+v\n  w8 %+v", trial, serial.snap, wide.snap)
		}
		if serial.lat != wide.lat {
			t.Fatalf("trial %d: virtual makespan %v vs %v", trial, serial.lat, wide.lat)
		}
	}
}

// TestFuzzRerunsAreIdenticalAfterChaos re-runs the same job twice on one
// testbed with a revocation between the runs; caching plus recomputation
// must never change the answer.
func TestFuzzRerunsAreIdenticalAfterChaos(t *testing.T) {
	trials := 15
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(trial)*104729 + 5
		target := randomDAG(seed)
		tb := checked(MustTestbed(TestbedOpts{Nodes: 4}))
		r1, err := tb.Engine.RunJob(target, ActionCollect)
		if err != nil {
			t.Fatalf("trial %d run 1: %v", trial, err)
		}
		tb.RevokeNodes(tb.Clock.Now()+1, 2, true)
		tb.Clock.RunUntil(tb.Clock.Now() + 150)
		r2, err := tb.Engine.RunJob(target, ActionCollect)
		if err != nil {
			t.Fatalf("trial %d run 2: %v", trial, err)
		}
		a, b := canonicalize(r1.Rows), canonicalize(r2.Rows)
		if len(a) != len(b) {
			t.Fatalf("trial %d: row counts %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: rerun row %d differs", trial, i)
			}
		}
	}
}
