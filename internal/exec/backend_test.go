package exec

import (
	"reflect"
	"testing"

	"flint/internal/rdd"
	"flint/internal/serverless"
)

// The fn backend must produce exactly the rows the VM backend does —
// externalizing shuffle and cache state changes timing and cost, never
// outcomes.
func TestFnBackendMatchesVMRows(t *testing.T) {
	run := func(backend Backend) (map[int]int, *Result) {
		c := rdd.NewContext(4)
		target := pipeline(c, 2000, 4)
		tb := checked(MustTestbed(TestbedOpts{Nodes: 5, Backend: backend}))
		res, err := tb.Engine.RunJob(target, ActionCollect)
		if err != nil {
			t.Fatal(err)
		}
		return asKVMap(t, res.Rows), res
	}
	vmRows, vmRes := run(nil)
	fn := serverless.New(serverless.Config{})
	fnRows, fnRes := run(fn)
	if !reflect.DeepEqual(vmRows, fnRows) {
		t.Fatalf("fn rows diverge from vm:\nvm: %v\nfn: %v", vmRows, fnRows)
	}
	// Cold starts and store-mediated shuffles make the fn run slower,
	// and every task bills.
	if fnRes.Latency() <= vmRes.Latency() {
		t.Errorf("fn latency %.3f not above vm latency %.3f (cold starts + external I/O missing?)",
			fnRes.Latency(), vmRes.Latency())
	}
	st := fn.Stats()
	if st.ColdStarts == 0 || st.Invocations == 0 {
		t.Errorf("fn stats %+v: expected cold starts and billed invocations", st)
	}
	if fn.AccruedCost() <= 0 || fn.AccruedGBSeconds() <= 0 {
		t.Errorf("fn billing not accrued: cost=%v gbs=%v", fn.AccruedCost(), fn.AccruedGBSeconds())
	}
}

// Passing VMBackend() explicitly must be indistinguishable from a nil
// Config.Backend — same rows, same stats, same virtual timeline.
func TestExplicitVMBackendIdentical(t *testing.T) {
	run := func(backend Backend) (*Result, float64) {
		c := rdd.NewContext(4)
		target := pipeline(c, 1500, 4)
		tb := checked(MustTestbed(TestbedOpts{Nodes: 4, Backend: backend}))
		res, err := tb.Engine.RunJob(target, ActionCollect)
		if err != nil {
			t.Fatal(err)
		}
		return res, tb.Clock.Now()
	}
	a, nowA := run(nil)
	b, nowB := run(VMBackend())
	if nowA != nowB || a.Start != b.Start || a.End != b.End {
		t.Fatalf("virtual timelines diverge: nil=(%v, %v..%v) vm=(%v, %v..%v)",
			nowA, a.Start, a.End, nowB, b.Start, b.End)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("stats diverge:\nnil: %+v\nvm:  %+v", a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(asKVMap(t, a.Rows), asKVMap(t, b.Rows)) {
		t.Fatal("rows diverge between nil and explicit VM backend")
	}
}

// On the fn backend all state is external, so revoking nodes must not
// force recomputation: cached partitions and shuffle segments are read
// back from the store.
func TestFnBackendStateSurvivesRevocation(t *testing.T) {
	c := rdd.NewContext(4)
	src := c.Parallelize("ints", 8, 1024, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := 0; i < 100; i++ {
			out = append(out, part*100+i)
		}
		return out
	})
	cached := src.Map("work", func(x rdd.Row) rdd.Row { return x.(int) + 1 }).Persist()
	tb := checked(MustTestbed(TestbedOpts{Nodes: 4, Backend: serverless.New(serverless.Config{})}))
	if _, err := tb.Engine.RunJob(cached, ActionMaterialize); err != nil {
		t.Fatal(err)
	}
	if !tb.Store.Has(fnCacheKey(cached, 0)) {
		t.Fatal("cached partition not externalized to the store")
	}
	tb.RevokeNodes(tb.Clock.Now()+10, 2, true)
	tb.Clock.RunUntil(tb.Clock.Now() + 500)
	res, err := tb.Engine.RunJob(cached, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 800 {
		t.Fatalf("rows after revocation = %d, want 800", len(res.Rows))
	}
	// The cached partitions come back from the store, so the source RDD
	// is never re-resolved: lineage recomputation did not happen.
	for p := 0; p < 8; p++ {
		if n := tb.Engine.ComputeCount(src.ID, p); n != 1 {
			t.Errorf("source partition %d computed %d times; external state should have survived", p, n)
		}
	}
	if res.Stats.CheckpointReads == 0 {
		t.Error("second job should read partitions back from the store")
	}
}

// Shuffle map outputs registered under the external pseudo node must
// survive the producing node's revocation mid-job.
func TestFnBackendShuffleSurvivesNodeLoss(t *testing.T) {
	c := rdd.NewContext(4)
	target := pipeline(c, 3000, 6)
	tb := checked(MustTestbed(TestbedOpts{Nodes: 5, Backend: serverless.New(serverless.Config{})}))
	// Revoke two nodes while the job is in flight.
	tb.RevokeNodes(5, 2, true)
	res, err := tb.Engine.RunJob(target, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	c2 := rdd.NewContext(4)
	want := asKVMap(t, rdd.CollectLocal(pipeline(c2, 3000, 6)))
	if !reflect.DeepEqual(asKVMap(t, res.Rows), want) {
		t.Fatal("fn backend rows wrong after mid-job revocation")
	}
	if res.Stats.FetchFailures != 0 {
		t.Errorf("external shuffle reported %d fetch failures; segments should be durable", res.Stats.FetchFailures)
	}
	if len(tb.Store.Keys("fnshuffle/")) == 0 {
		t.Error("no externalized shuffle segments in the store")
	}
}
