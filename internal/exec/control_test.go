package exec

import (
	"strconv"
	"testing"

	"flint/internal/dfs"
	"flint/internal/obs"
	"flint/internal/rdd"
	"flint/internal/serverless"
)

// checked turns on the control-plane cross-check for tb's engine: every
// stage visit compares the memoized plan with fresh reference walks
// (missingShuffles) and panics on any difference.
func checked(tb *Testbed) *Testbed {
	tb.Engine.checkMemo = true
	return tb
}

// The scheduler probes block presence once per lineage step; the probe
// (location index, checkpoint key, externalized-cache key) must not
// allocate on either backend.
func TestBlockProbeAllocFree(t *testing.T) {
	e := MustTestbed(TestbedOpts{Nodes: 2}).Engine
	defer func(fn bool) { e.fnMode = fn }(e.fnMode)
	e.store.Put(dfs.Key(7, 3), nil, 10, 0)
	e.store.Put(fnCacheKey(&rdd.RDD{ID: 8}, 1), nil, 10, 0)
	hit, fnHit, miss := blockKey{rddID: 7, part: 3}, blockKey{rddID: 8, part: 1}, blockKey{rddID: 7, part: 4}
	for _, fn := range []bool{false, true} {
		e.fnMode = fn
		if ok, _ := e.blockPresent(hit); !ok {
			t.Fatalf("fn=%v: checkpointed block reported absent", fn)
		}
		if ok, _ := e.blockPresent(fnHit); ok != fn {
			t.Fatalf("fn=%v: externalized block present=%v", fn, ok)
		}
		if ok, _ := e.blockPresent(miss); ok {
			t.Fatalf("fn=%v: absent block reported present", fn)
		}
		allocs := testing.AllocsPerRun(200, func() {
			e.blockPresent(hit)
			e.blockPresent(fnHit)
			e.blockPresent(miss)
		})
		if allocs != 0 {
			t.Errorf("fn=%v: presence probe allocates %.1f times per run, want 0", fn, allocs)
		}
	}
}

// shuffledPair returns x, a shuffled RDD, and y = x.Map: the result
// stage of a job on y walks y(p) → x(p) → x's shuffle dep, so its plan
// reads the presence of x's checkpoints.
func shuffledPair(c *rdd.Context) (x, y *rdd.RDD) {
	src := c.Parallelize("src", 8, 1<<20, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := 0; i < 200; i++ {
			out = append(out, part*200+i)
		}
		return out
	})
	x = src.KeyBy("k", func(v rdd.Row) rdd.Row { return v.(int) % 11 }).CountPerKey("n", 4)
	y = x.Map("id", func(v rdd.Row) rdd.Row { return v })
	return x, y
}

// A checkpoint (VM backend) or externalized cache copy (function
// backend) that lands in the store from outside the engine while a job
// is blocked on a shuffle must reach the memoized walks through the
// store's presence log: the blocked partitions become runnable at once.
// In the flood case so many other keys follow that the log drops the
// landing before the engine reads it, and the engine must invalidate
// every walk that read the store. The cross-check panics if a stale
// walk survives.
func TestMemoFollowsStorePresenceLog(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fn, flood bool
	}{{"checkpoint", false, false}, {"fncache", true, false}, {"flood", false, true}} {
		c := rdd.NewContext(4)
		x, y := shuffledPair(c)
		want := canonicalize(rdd.CollectLocal(y))
		opts := TestbedOpts{Nodes: 1, Slots: 1}
		if tc.fn {
			opts.Backend = serverless.New(serverless.Config{})
		}
		tb := checked(MustTestbed(opts))
		landed := false
		// Early, while every result partition is still blocked.
		tb.Clock.After(0.001, func() {
			now := tb.Clock.Now()
			for p, rows := range rdd.EvalLocal(x) {
				key := dfs.Key(x.ID, p)
				if tc.fn {
					key = fnCacheKey(x, p)
				}
				tb.Store.Put(key, rdd.WrapRows(rows), x.SizeOfRows(len(rows)), now)
			}
			for i := 0; tc.flood && i < 5000; i++ {
				tb.Store.Put("flood/"+strconv.Itoa(i), nil, 1, now)
			}
			landed = true
		})
		res, err := tb.Engine.RunJob(y, ActionCollect)
		if err != nil {
			t.Fatal(err)
		}
		if !landed {
			t.Fatalf("%s: job finished before the copies landed; the test did not exercise the log", tc.name)
		}
		if got := canonicalize(res.Rows); !equalStrings(got, want) {
			t.Fatalf("%s: rows differ from the oracle:\n  engine %v\n  oracle %v", tc.name, got, want)
		}
		// The result stage read the landed copies instead of waiting for
		// the map stage to finish.
		if res.Stats.CheckpointReads == 0 {
			t.Errorf("%s: no store reads: the landed copies were never used", tc.name)
		}
		if err := tb.Engine.Audit(); err != nil {
			t.Fatal(err)
		}
	}
}

// While a read-fault hook is installed, a store answer holds only at the
// instant it was read: when the fault window closes, partitions whose
// walks saw a faulted checkpoint must be re-walked and become runnable.
func TestMemoRereadsFaultedStoreAtNewInstants(t *testing.T) {
	c := rdd.NewContext(4)
	x, y := shuffledPair(c)
	want := canonicalize(rdd.CollectLocal(y))
	tb := checked(MustTestbed(TestbedOpts{Nodes: 1, Slots: 1}))
	for p, rows := range rdd.EvalLocal(x) {
		tb.Store.Put(dfs.Key(x.ID, p), rdd.WrapRows(rows), x.SizeOfRows(len(rows)), 0)
	}
	const closes = 0.5
	tb.Store.SetReadFault(func(key string) bool { return tb.Clock.Now() < closes })
	res, err := tb.Engine.RunJob(y, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalize(res.Rows); !equalStrings(got, want) {
		t.Fatalf("rows differ from the oracle:\n  engine %v\n  oracle %v", got, want)
	}
	if res.Stats.CheckpointReads == 0 {
		t.Error("no checkpoint reads after the fault window closed")
	}
	if res.End < closes {
		t.Fatal("job finished inside the fault window; the test did not exercise it")
	}
}

// The location index and the memo stay equal to ground truth through
// caching, eviction to disk and out of the cache, and revocations:
// Engine.Audit checks both at instants across the run.
func TestControlPlaneAuditsMidRun(t *testing.T) {
	c := rdd.NewContext(4)
	_, y := shuffledPair(c)
	y.Persist()
	z := y.KeyBy("k2", func(v rdd.Row) rdd.Row { return v.(rdd.KV).K }).CountPerKey("n2", 3)
	want := canonicalize(rdd.CollectLocal(z))
	// Small memory and disk tiers force demotions and drops.
	tb := checked(MustTestbed(TestbedOpts{Nodes: 3, MemBytes: 3 << 20, DiskBytes: 4 << 20}))
	tb.RevokeNodes(0.4, 1, true)
	var auditErr error
	for i := 1; i <= 20; i++ {
		tb.Clock.After(0.05*float64(i), func() {
			if err := tb.Engine.Audit(); err != nil && auditErr == nil {
				auditErr = err
			}
		})
	}
	for run := 0; run < 2; run++ {
		res, err := tb.Engine.RunJob(z, ActionCollect)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalize(res.Rows); !equalStrings(got, want) {
			t.Fatalf("run %d: rows differ from the oracle", run)
		}
	}
	if auditErr != nil {
		t.Fatal(auditErr)
	}
	if len(tb.Engine.holders) == 0 {
		t.Error("location index empty after caching runs")
	}
	if err := tb.Engine.Audit(); err != nil {
		t.Fatal(err)
	}
}

// Fuzzed DAGs under revocations, with the cross-check armed: the memo
// must match fresh reference walks on every stage visit of every pump.
func TestFuzzControlPlaneMatchesFullWalk(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(trial)*6151 + 3
		target := randomDAG(seed)
		tb := checked(MustTestbed(TestbedOpts{Nodes: 3, MemBytes: 1 << 20, DiskBytes: 2 << 20}))
		tb.RevokeNodes(2+float64(trial%5), 1, true)
		tb.RevokeNodes(20+float64(trial%7), 2, true)
		if _, err := tb.Engine.RunJob(target, ActionCollect); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tb.Engine.Audit(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// A revocation at any point of a job — killing running tasks, dropping
// map outputs the next stage needs, dropping cached blocks a walk
// stopped at — must replan exactly what it touched: a killed task's
// stage though nothing its walks read changed, a map stage whose
// outputs were lost though its walks are intact, and the walks that
// read a lost cached block. Each shape runs an optional warm-up job
// (its caches are what the revocation destroys), then the target job
// with one node revoked at a fraction of the target's fault-free
// makespan.
func TestRevocationSweepReplans(t *testing.T) {
	type shape struct {
		name  string
		build func(c *rdd.Context) (warm, target *rdd.RDD)
	}
	shapes := []shape{
		{"narrow", func(c *rdd.Context) (*rdd.RDD, *rdd.RDD) {
			src := c.Parallelize("src", 6, 1<<20, func(part int) []rdd.Row {
				return []rdd.Row{part, part + 100}
			})
			return nil, src.Map("slow", func(v rdd.Row) rdd.Row { return v }).WithWeight(20)
		}},
		{"shuffle", func(c *rdd.Context) (*rdd.RDD, *rdd.RDD) {
			_, y := shuffledPair(c)
			return nil, y.WithWeight(20)
		}},
		{"cached", func(c *rdd.Context) (*rdd.RDD, *rdd.RDD) {
			_, y := shuffledPair(c)
			y.Persist()
			z := y.KeyBy("k2", func(v rdd.Row) rdd.Row { return v.(rdd.KV).K }).CountPerKey("n2", 3)
			return y, z.WithWeight(20)
		}},
	}
	run := func(sh shape, revokeAt float64) (*Result, []string) {
		t.Helper()
		c := rdd.NewContext(4)
		warm, target := sh.build(c)
		tb := checked(MustTestbed(TestbedOpts{Nodes: 3, Slots: 1}))
		if warm != nil {
			if _, err := tb.Engine.RunJob(warm, ActionMaterialize); err != nil {
				t.Fatal(err)
			}
		}
		var auditErr error
		if revokeAt > 0 {
			tb.RevokeNodes(tb.Clock.Now()+revokeAt, 1, true)
			// Audit right after the revocation and then periodically:
			// a stale walk that replan never consults again must still
			// equal a fresh one.
			for i := 0; i < 20; i++ {
				tb.Clock.After(revokeAt*(1+float64(i)/10)+1e-9, func() {
					if err := tb.Engine.Audit(); err != nil && auditErr == nil {
						auditErr = err
					}
				})
			}
		}
		res, err := tb.Engine.RunJob(target, ActionCollect)
		if err == nil {
			err = auditErr
		}
		if err != nil {
			t.Fatalf("%s revoked at +%.3f: %v", sh.name, revokeAt, err)
		}
		return res, canonicalize(rdd.CollectLocal(target))
	}
	for _, sh := range shapes {
		clean, _ := run(sh, 0)
		killed, recomputed := 0, 0
		for i := 1; i < 10; i++ {
			res, want := run(sh, clean.Latency()*float64(i)/10)
			if got := canonicalize(res.Rows); !equalStrings(got, want) {
				t.Fatalf("%s at %d/10: rows differ from the oracle", sh.name, i)
			}
			killed += res.Stats.TasksKilled
			recomputed += res.Stats.RecomputedPartitions
		}
		if killed == 0 || (sh.name != "narrow" && recomputed == 0) {
			t.Errorf("%s: sweep killed %d tasks and recomputed %d partitions; it must exercise both", sh.name, killed, recomputed)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Each partition is walked when its inputs change, not on every pump:
// on an unchanged cluster the 8 map partitions each walk their 3-RDD
// narrow chain (src, k and CountPerKey's map side) once, and the 4
// result partitions walk id and n once while blocked on the shuffle and
// once after it completes — 40 steps, however many pumps the job takes.
func TestLineageProbesWalkOncePerChange(t *testing.T) {
	c := rdd.NewContext(4)
	_, y := shuffledPair(c)
	bundle := obs.New(obs.Options{Disabled: true, RingCapacity: 1})
	tb := checked(MustTestbed(TestbedOpts{Nodes: 2, Slots: 1, Obs: bundle}))
	if _, err := tb.Engine.RunJob(y, ActionCount); err != nil {
		t.Fatal(err)
	}
	if got := bundle.ExecLineageProbes.Value(); got != 8*3+4*2*2 {
		t.Errorf("lineage probes = %d, want %d", got, 8*3+4*2*2)
	}
}
