package exec

// Round trips of the column-carrying plane: cache put/get, shuffle
// fetch-materialize vs the row plane, and checkpoint write/restore
// through a live engine, each asserted value-identical to the rows the
// row plane (or EvalLocal) produces.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flint/internal/rdd"
	"flint/internal/simclock"
)

func typedKVRows(n, keys int, seed int64) []rdd.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]rdd.Row, n)
	for i := range rows {
		rows[i] = rdd.KV{K: rng.Intn(keys), V: rng.Intn(1000)}
	}
	return rows
}

// Cache round trip: a typed batch stored and read back must box to the
// original rows, through both get and peek, surviving a demotion to the
// disk tier.
func TestCacheColumnBatchRoundTrip(t *testing.T) {
	rows := typedKVRows(500, 40, 0x0c01)
	b := rdd.ExtractBatch(rows, true)
	if !b.HasCols() {
		t.Fatal("fixture rows should extract to a typed batch")
	}
	c := newBlockCache(1000, 10000)
	k := blockKey{rddID: 1, part: 0}
	c.put(k, b, 600)
	got, ok := c.get(k)
	if !ok || !reflect.DeepEqual(got.data.Rows(), rows) {
		t.Fatal("cache get did not round-trip the typed batch")
	}
	// Force a demotion: the block must survive tier movement intact.
	c.put(blockKey{rddID: 2, part: 0}, rdd.WrapRows(rows[:10]), 900)
	got, ok = c.peek(k)
	if !ok || got.where != tierDisk {
		t.Fatal("expected the typed batch demoted to disk")
	}
	if !reflect.DeepEqual(got.data.Rows(), rows) {
		t.Fatal("demoted batch no longer boxes to the original rows")
	}
}

// Shuffle round trip: typed batch buckets registered, fetched and
// materialized must equal the row plane's concatenation, and the typed
// column layout must survive the fetch (egress-only boxing).
func TestShuffleFetchMaterializeBatchVsRows(t *testing.T) {
	tr, dep := shuffleFixture()
	trRows, _ := shuffleFixture()
	for mapPart := 0; mapPart < 3; mapPart++ {
		rows := typedKVRows(400, 64, int64(mapPart)+7)
		rowBuckets := dep.BucketRows(rows)
		tr.putOutput(dep, mapPart, 1, dep.BucketBatch(rdd.ExtractBatch(rows, true)))
		trRows.putOutput(dep, mapPart, 1, wrapBuckets(rowBuckets))
	}
	for part := 0; part < dep.NumOut; part++ {
		got := tr.fetch(dep, part, 1).materialize()
		want := trRows.fetch(dep, part, 1).materialize().Rows()
		if !got.HasCols() {
			t.Fatalf("part %d: typed segments lost their columns through fetch", part)
		}
		if !reflect.DeepEqual(got.Rows(), want) {
			t.Fatalf("part %d: batch materialize differs from row materialize", part)
		}
	}
}

// Engine round trip: a caching + checkpointing + revoking run carries
// columns through shuffle buckets, cache entries and checkpoint writes,
// and must still deliver exactly the rows, in the same order, that
// EvalLocal computes on the row plane.
func TestEngineColumnCarryMatchesEvalLocal(t *testing.T) {
	c := rdd.NewContext(4)
	src := c.Parallelize("src", 4, 16, func(part int) []rdd.Row {
		return typedKVRows(3000, 200, int64(part)+101)
	})
	red := src.ReduceByKeyInt("sum", 4, func(a, b int) int { return a + b }).Persist()
	grp := src.GroupByKey("grp", 4)
	target := red.Join("join", grp, 4)
	want := fmt.Sprintf("%#v", rdd.CollectLocal(target))

	tb := MustTestbed(TestbedOpts{Nodes: 5, Policy: &alwaysCheckpoint{}})
	tb.RevokeNodes(30, 2, true)
	res, err := tb.Engine.RunJob(target, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%#v", res.Rows); got != want {
		t.Fatal("engine rows differ from EvalLocal")
	}
	if res.Stats.CheckpointReads == 0 && res.Stats.CheckpointTasks == 0 {
		t.Fatal("fixture never checkpointed; the round trip proved nothing")
	}
}

// Checkpoint restore must hand back the written batch: after revocation
// wipes the cache, a persisted-and-checkpointed RDD's partitions come
// back from the store byte-identical to a fresh computation.
func TestCheckpointWriteRestoreRoundTrip(t *testing.T) {
	build := func() (*rdd.RDD, *rdd.RDD) {
		c := rdd.NewContext(4)
		src := c.Parallelize("src", 4, 16, func(part int) []rdd.Row {
			return typedKVRows(2000, 80, int64(part)+11)
		})
		red := src.ReduceByKeyInt("sum", 4, func(a, b int) int { return a + b }).Persist()
		derived := red.MapValues("inc", func(v rdd.Row) rdd.Row { return v.(int) + 1 })
		return red, derived
	}
	red, derived := build()
	want := rdd.CollectLocal(derived)

	tb := MustTestbed(TestbedOpts{Nodes: 4, Policy: &alwaysCheckpoint{}})
	if _, err := tb.Engine.RunJob(red, ActionMaterialize); err != nil {
		t.Fatal(err)
	}
	// Let the async checkpoint tasks drain, then revoke every original
	// node: cached blocks are gone, so the second job can only succeed
	// by reading the checkpointed batches back from the store.
	tb.Clock.RunUntil(tb.Clock.Now() + simclock.Hour)
	tb.RevokeNodes(tb.Clock.Now()+1, 4, true)
	tb.Clock.RunUntil(tb.Clock.Now() + 600)
	res, err := tb.Engine.RunJob(derived, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CheckpointReads == 0 {
		t.Fatal("restore run never read a checkpoint")
	}
	if fmt.Sprintf("%#v", res.Rows) != fmt.Sprintf("%#v", want) {
		t.Fatal("restored results differ from local evaluation")
	}
}
