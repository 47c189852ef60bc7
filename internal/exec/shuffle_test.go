package exec

import (
	"testing"

	"flint/internal/rdd"
)

// wrapBuckets lifts classic []Row buckets into tail-only batches for
// the batch-typed tracker API.
func wrapBuckets(bs [][]rdd.Row) []*rdd.ColBatch {
	out := make([]*rdd.ColBatch, len(bs))
	for i, b := range bs {
		out[i] = rdd.WrapRows(b)
	}
	return out
}

func shuffleFixture() (*shuffleTracker, *rdd.ShuffleDep) {
	c := rdd.NewContext(2)
	src := c.Parallelize("src", 3, 10, func(part int) []rdd.Row { return nil })
	dep := &rdd.ShuffleDep{P: src, NumOut: 2}
	return newShuffleTracker(), dep
}

func TestShuffleTrackerRegisterIdempotent(t *testing.T) {
	tr, dep := shuffleFixture()
	id1 := tr.register(dep)
	id2 := tr.register(dep)
	if id1 != id2 {
		t.Fatalf("register not idempotent: %v vs %v", id1, id2)
	}
	if tr.state(dep) == nil {
		t.Fatal("state missing")
	}
}

func TestShuffleTrackerAvailability(t *testing.T) {
	tr, dep := shuffleFixture()
	st := tr.state(dep)
	if st.available() {
		t.Fatal("fresh shuffle should not be available")
	}
	if got := st.missingParts(nil); len(got) != 3 {
		t.Fatalf("missing = %v", got)
	}
	tr.putOutput(dep, 0, 1, wrapBuckets([][]rdd.Row{{1}, {2}}))
	tr.putOutput(dep, 2, 2, wrapBuckets([][]rdd.Row{{3}, nil}))
	if st.available() {
		t.Fatal("partially registered shuffle should not be available")
	}
	if got := st.missingParts(nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("missing = %v", got)
	}
	tr.putOutput(dep, 1, 1, wrapBuckets([][]rdd.Row{nil, {4}}))
	if !st.available() {
		t.Fatal("fully registered shuffle should be available")
	}
}

func TestShuffleFetchOrderAndLocality(t *testing.T) {
	tr, dep := shuffleFixture()
	tr.putOutput(dep, 0, 1, wrapBuckets([][]rdd.Row{{"a0"}, {"b0"}}))
	tr.putOutput(dep, 1, 2, wrapBuckets([][]rdd.Row{{"a1"}, {"b1"}}))
	tr.putOutput(dep, 2, 1, wrapBuckets([][]rdd.Row{{"a2"}, {"b2"}}))
	// Reader on node 1: map parts 0 and 2 are local.
	res := tr.fetch(dep, 0, 1)
	if len(res.missing) != 0 {
		t.Fatalf("unexpected missing: %v", res.missing)
	}
	rows := res.materialize().Rows()
	if len(rows) != res.total {
		t.Fatalf("materialized %d rows, total says %d", len(rows), res.total)
	}
	// Concatenation in map-partition order is the determinism contract.
	want := []string{"a0", "a1", "a2"}
	for i, r := range rows {
		if r.(string) != want[i] {
			t.Fatalf("rows = %v, want %v", rows, want)
		}
	}
	if res.localBytes != 20 || res.remoteBytes != 10 {
		t.Errorf("locality split = %d local / %d remote", res.localBytes, res.remoteBytes)
	}
}

func TestShuffleFetchMissingFails(t *testing.T) {
	tr, dep := shuffleFixture()
	tr.putOutput(dep, 0, 1, wrapBuckets([][]rdd.Row{{"a0"}, {"b0"}}))
	res := tr.fetch(dep, 1, 1)
	if len(res.missing) != 2 {
		t.Fatalf("missing = %v, want [1 2]", res.missing)
	}
	if res.segs != nil || res.total != 0 || res.materialize().Len() != 0 {
		t.Error("failed fetch must not return partial rows")
	}
}

// A single-segment fetch must be copy-free: the materialized slice is
// the stored bucket itself, with capacity pinned so an appending
// consumer cannot clobber tracker state.
func TestShuffleFetchSingleSegmentCopyFree(t *testing.T) {
	c := rdd.NewContext(2)
	src := c.Parallelize("src", 1, 10, func(part int) []rdd.Row { return nil })
	dep := &rdd.ShuffleDep{P: src, NumOut: 2}
	tr := newShuffleTracker()
	bucket0 := dep.BucketRows([]rdd.Row{rdd.KV{K: 0, V: "a"}, rdd.KV{K: 0, V: "b"}})
	tr.putOutput(dep, 0, 1, wrapBuckets(bucket0))
	res := tr.fetch(dep, rdd.PartitionOf(0, 2), 1)
	rows := res.materialize().Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if len(rows) != cap(rows) {
		t.Errorf("single-segment view has spare capacity (%d/%d): appends would alias tracker state", len(rows), cap(rows))
	}
	grown := append(rows, rdd.KV{K: 0, V: "c"})
	_ = grown
	again := tr.fetch(dep, rdd.PartitionOf(0, 2), 1).materialize().Rows()
	if len(again) != 2 {
		t.Fatalf("append through fetched view corrupted the tracker: %v", again)
	}
}

// The cached per-node byte totals must match a brute-force recount over
// every stored output, across puts, overwrites and node drops.
func TestShuffleNodeBytesMatchesRecount(t *testing.T) {
	c := rdd.NewContext(2)
	srcA := c.Parallelize("a", 4, 10, func(part int) []rdd.Row { return nil })
	srcB := c.Parallelize("b", 3, 7, func(part int) []rdd.Row { return nil })
	depA := &rdd.ShuffleDep{P: srcA, NumOut: 2}
	depB := &rdd.ShuffleDep{P: srcB, NumOut: 3}
	tr := newShuffleTracker()

	recount := func(nodeID int) int64 {
		var total int64
		for _, st := range tr.states {
			for _, o := range st.outputs {
				if o != nil && o.nodeID == nodeID {
					for _, s := range o.sizes {
						total += s
					}
				}
			}
		}
		return total
	}
	check := func(step string) {
		t.Helper()
		for node := 0; node <= 3; node++ {
			if got, want := tr.nodeBytes(node), recount(node); got != want {
				t.Fatalf("%s: nodeBytes(%d) = %d, brute force = %d", step, node, got, want)
			}
		}
	}

	tr.putOutput(depA, 0, 1, wrapBuckets([][]rdd.Row{{1, 2}, {3}}))
	tr.putOutput(depA, 1, 2, wrapBuckets([][]rdd.Row{{4}, nil}))
	tr.putOutput(depB, 0, 1, wrapBuckets([][]rdd.Row{{5}, {6}, {7}}))
	tr.putOutput(depB, 2, 3, wrapBuckets([][]rdd.Row{nil, {8, 9}, nil}))
	check("after puts")

	// Recomputation overwrites map part 0 of depA on a different node.
	tr.putOutput(depA, 0, 3, wrapBuckets([][]rdd.Row{{1}, {2, 3, 4}}))
	check("after overwrite")

	// Revocation drops node 1; its outputs vanish from both shuffles.
	tr.dropNode(1)
	check("after dropNode")

	// Recovery re-registers the lost outputs elsewhere.
	tr.putOutput(depB, 0, 2, wrapBuckets([][]rdd.Row{{5}, {6}, {7}}))
	tr.putOutput(depA, 2, 2, wrapBuckets([][]rdd.Row{{10, 11, 12}, {13}}))
	check("after recovery")
}

func TestShuffleDropNode(t *testing.T) {
	tr, dep := shuffleFixture()
	tr.putOutput(dep, 0, 1, wrapBuckets([][]rdd.Row{{"a0"}, nil}))
	tr.putOutput(dep, 1, 2, wrapBuckets([][]rdd.Row{{"a1"}, nil}))
	tr.putOutput(dep, 2, 1, wrapBuckets([][]rdd.Row{{"a2"}, nil}))
	tr.dropNode(1)
	st := tr.state(dep)
	if got := st.missingParts(nil); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("missing after drop = %v", got)
	}
	if tr.nodeBytes(1) != 0 {
		t.Error("dropped node still has bytes")
	}
	if tr.nodeBytes(2) == 0 {
		t.Error("surviving node lost its bytes")
	}
}

func TestShuffleNodeBytes(t *testing.T) {
	tr, dep := shuffleFixture()
	tr.putOutput(dep, 0, 1, wrapBuckets([][]rdd.Row{{"x", "y"}, {"z"}}))
	// 3 rows × 10 bytes (src RowBytes).
	if got := tr.nodeBytes(1); got != 30 {
		t.Fatalf("nodeBytes = %d, want 30", got)
	}
	if tr.nodeBytes(99) != 0 {
		t.Error("unknown node should have 0 bytes")
	}
}

func TestExplicitCheckpointRequest(t *testing.T) {
	// RDD.Checkpoint() must write durable partitions even with no policy
	// installed (Spark API parity).
	c := rdd.NewContext(2)
	src := c.Parallelize("src", 2, 128, func(part int) []rdd.Row {
		return []rdd.Row{part * 10, part*10 + 1}
	}).Checkpoint()
	tb := MustTestbed(TestbedOpts{Nodes: 2})
	if _, err := tb.Engine.RunJob(src, ActionMaterialize); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunUntil(tb.Clock.Now() + 600)
	for p := 0; p < 2; p++ {
		if !tb.Store.Has(checkpointKey(src, p)) {
			t.Fatalf("partition %d not checkpointed despite explicit request", p)
		}
	}
	// Recovery after total loss reads the checkpoints.
	tb.RevokeNodes(tb.Clock.Now()+1, 2, true)
	tb.Clock.RunUntil(tb.Clock.Now() + 300)
	res, err := tb.Engine.RunJob(src.Map("m", func(r rdd.Row) rdd.Row { return r }), ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CheckpointReads != 2 {
		t.Errorf("checkpoint reads = %d, want 2", res.Stats.CheckpointReads)
	}
	if len(res.Rows) != 4 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}
