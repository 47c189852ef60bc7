package exec

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"flint/internal/obs"
	"flint/internal/rdd"
	"flint/internal/simclock"
)

// pipeline builds a representative two-shuffle program:
// ints → filter → map to KV → reduceByKey → mapValues → reduceByKey.
func pipeline(c *rdd.Context, n, parts int) *rdd.RDD {
	src := c.Parallelize("ints", parts, 16, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := part; i < n; i += parts {
			out = append(out, i)
		}
		return out
	})
	return src.
		Filter("odd", func(x rdd.Row) bool { return x.(int)%2 == 1 }).
		Map("kv", func(x rdd.Row) rdd.Row { return rdd.KV{K: x.(int) % 20, V: x.(int)} }).
		ReduceByKey("sum", parts, func(a, b rdd.Row) rdd.Row { return a.(int) + b.(int) }).
		MapValues("half", func(v rdd.Row) rdd.Row { return v.(int) / 2 }).
		Map("rekey", func(x rdd.Row) rdd.Row { kv := x.(rdd.KV); return rdd.KV{K: kv.K.(int) % 5, V: kv.V} }).
		ReduceByKey("sum2", parts, func(a, b rdd.Row) rdd.Row { return a.(int) + b.(int) })
}

// asKVMap converts collected KV rows to a map for order-insensitive
// comparison.
func asKVMap(t *testing.T, rows []rdd.Row) map[int]int {
	t.Helper()
	out := map[int]int{}
	for _, r := range rows {
		kv := r.(rdd.KV)
		out[kv.K.(int)] = kv.V.(int)
	}
	return out
}

func TestEngineMatchesLocalEval(t *testing.T) {
	c := rdd.NewContext(4)
	target := pipeline(c, 2000, 4)
	want := asKVMap(t, rdd.CollectLocal(target))

	tb := MustTestbed(TestbedOpts{Nodes: 5})
	res, err := tb.Engine.RunJob(target, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	got := asKVMap(t, res.Rows)
	if len(got) != len(want) {
		t.Fatalf("key counts differ: %d vs %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: engine %d, local %d", k, got[k], v)
		}
	}
	if res.Latency() <= 0 {
		t.Error("job must take positive virtual time")
	}
	if res.Stats.TasksLaunched == 0 {
		t.Error("no tasks recorded")
	}
}

func TestCountAction(t *testing.T) {
	c := rdd.NewContext(4)
	src := c.Parallelize("ints", 4, 8, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := part; i < 100; i += 4 {
			out = append(out, i)
		}
		return out
	})
	tb := MustTestbed(TestbedOpts{Nodes: 3})
	res, err := tb.Engine.RunJob(src, ActionCount)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 100 {
		t.Fatalf("count = %d, want 100", res.Count)
	}
	if res.Rows != nil {
		t.Error("count action should not ship rows")
	}
}

func TestCachingAvoidsRecompute(t *testing.T) {
	c := rdd.NewContext(4)
	// Gen runs on the engine's worker pool, so the count is atomic.
	var genCalls atomic.Int64
	src := c.Parallelize("expensive", 4, 1024, func(part int) []rdd.Row {
		genCalls.Add(1)
		return []rdd.Row{part}
	})
	cached := src.Map("work", func(x rdd.Row) rdd.Row { return x.(int) * 2 }).Persist()

	tb := MustTestbed(TestbedOpts{Nodes: 4})
	if _, err := tb.Engine.RunJob(cached, ActionMaterialize); err != nil {
		t.Fatal(err)
	}
	if genCalls.Load() != 4 {
		t.Fatalf("first run generated %d partitions, want 4", genCalls.Load())
	}
	r2, err := tb.Engine.RunJob(cached, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	if genCalls.Load() != 4 {
		t.Fatalf("cached rerun regenerated source (%d calls)", genCalls.Load())
	}
	if r2.Stats.CacheHits == 0 {
		t.Error("second job should hit the cache")
	}
	if tb.Engine.ComputeCount(cached.ID, 0) != 1 {
		t.Errorf("partition computed %d times, want 1", tb.Engine.ComputeCount(cached.ID, 0))
	}
}

func TestRevocationTriggersRecomputation(t *testing.T) {
	c := rdd.NewContext(4)
	src := c.Parallelize("ints", 8, 1024, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := 0; i < 100; i++ {
			out = append(out, part*100+i)
		}
		return out
	})
	cached := src.Map("work", func(x rdd.Row) rdd.Row { return x.(int) + 1 }).Persist()
	tb := MustTestbed(TestbedOpts{Nodes: 4})
	if _, err := tb.Engine.RunJob(cached, ActionMaterialize); err != nil {
		t.Fatal(err)
	}
	// Revoke one node; its cached partitions are lost.
	tb.RevokeNodes(tb.Clock.Now()+10, 1, true)
	tb.Clock.RunUntil(tb.Clock.Now() + 500)

	res, err := tb.Engine.RunJob(cached, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 800 {
		t.Fatalf("rows after revocation = %d, want 800", len(res.Rows))
	}
	if res.Stats.CacheMisses == 0 {
		t.Error("lost partitions should cause cache misses and recomputation")
	}
	if tb.Engine.Snapshot().Revocations != 1 {
		t.Errorf("revocations = %d", tb.Engine.Snapshot().Revocations)
	}
}

func TestShuffleOutputLossCausesMapResubmission(t *testing.T) {
	c := rdd.NewContext(4)
	target := pipeline(c, 1000, 6)
	want := asKVMap(t, rdd.CollectLocal(target))

	tb := MustTestbed(TestbedOpts{Nodes: 6})
	// Revoke three nodes shortly after the job starts: map outputs vanish
	// mid-flight and reduce tasks must fetch-fail and recompute.
	tb.RevokeNodes(5, 3, true)
	res, err := tb.Engine.RunJob(target, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	got := asKVMap(t, res.Rows)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: engine %d, local %d (result corrupted by revocation)", k, got[k], v)
		}
	}
}

func TestRevocationMidJobStillCorrect(t *testing.T) {
	// Sweep revocation instants to catch scheduler states: pending,
	// running, map-done, reduce-running.
	for _, at := range []float64{1, 20, 60, 120, 300} {
		at := at
		t.Run(fmt.Sprintf("at=%v", at), func(t *testing.T) {
			c := rdd.NewContext(4)
			target := pipeline(c, 3000, 8)
			want := asKVMap(t, rdd.CollectLocal(target))
			tb := MustTestbed(TestbedOpts{Nodes: 5})
			tb.RevokeNodes(at, 2, true)
			res, err := tb.Engine.RunJob(target, ActionCollect)
			if err != nil {
				t.Fatal(err)
			}
			got := asKVMap(t, res.Rows)
			if len(got) != len(want) {
				t.Fatalf("key counts: %d vs %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %d: %d vs %d", k, got[k], v)
				}
			}
		})
	}
}

func TestRevocationSlowsJobDown(t *testing.T) {
	build := func() *rdd.RDD {
		c := rdd.NewContext(4)
		return pipeline(c, 5000, 8)
	}
	base := MustTestbed(TestbedOpts{Nodes: 5})
	r0, err := base.Engine.RunJob(build(), ActionMaterialize)
	if err != nil {
		t.Fatal(err)
	}
	faulty := MustTestbed(TestbedOpts{Nodes: 5})
	faulty.RevokeNodes(r0.Latency()*0.5, 2, true)
	r1, err := faulty.Engine.RunJob(build(), ActionMaterialize)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Latency() <= r0.Latency() {
		t.Fatalf("revocation did not slow the job: %.1f vs %.1f", r1.Latency(), r0.Latency())
	}
}

// alwaysCheckpoint is a trivial policy: checkpoint everything.
type alwaysCheckpoint struct{ done int }

func (p *alwaysCheckpoint) ShouldCheckpoint(r *rdd.RDD, now float64) bool { return true }
func (p *alwaysCheckpoint) NotifyStageActive(r *rdd.RDD, now float64)     {}
func (p *alwaysCheckpoint) NotifyStageDone(r *rdd.RDD, now float64)       {}
func (p *alwaysCheckpoint) NotifyCheckpointDone(r *rdd.RDD, part int, bytes int64, wrote float64, now float64) {
	p.done++
}

func TestCheckpointTruncatesRecomputation(t *testing.T) {
	c := rdd.NewContext(4)
	// Gen runs on the engine's worker pool, so the count is atomic.
	var genCalls atomic.Int64
	src := c.Parallelize("src", 4, 1024, func(part int) []rdd.Row {
		genCalls.Add(1)
		var out []rdd.Row
		for i := 0; i < 50; i++ {
			out = append(out, part*50+i)
		}
		return out
	})
	derived := src.Map("m", func(x rdd.Row) rdd.Row { return x.(int) * 3 })

	pol := &alwaysCheckpoint{}
	tb := MustTestbed(TestbedOpts{Nodes: 4, Policy: pol})
	if _, err := tb.Engine.RunJob(derived, ActionMaterialize); err != nil {
		t.Fatal(err)
	}
	// Let the async checkpoint tasks drain.
	tb.Clock.RunUntil(tb.Clock.Now() + simclock.Hour)
	if pol.done == 0 {
		t.Fatal("no checkpoints written")
	}
	if !tb.Store.Has("rdd/2/part/0") {
		t.Fatalf("derived RDD not in store; keys: %v", tb.Store.Keys(""))
	}
	genCalls.Store(0)
	// Revoke everything (wiping all caches), then recompute: the engine
	// must restore from checkpoints without touching the source.
	tb.RevokeNodes(tb.Clock.Now()+1, 4, true)
	tb.Clock.RunUntil(tb.Clock.Now() + 600)
	res, err := tb.Engine.RunJob(derived, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	if genCalls.Load() != 0 {
		t.Fatalf("source regenerated %d times despite checkpoints", genCalls.Load())
	}
	if res.Stats.CheckpointReads == 0 {
		t.Error("recovery should read checkpoints")
	}
	if len(res.Rows) != 200 {
		t.Fatalf("restored rows = %d, want 200", len(res.Rows))
	}
}

func TestCheckpointTasksAreCounted(t *testing.T) {
	c := rdd.NewContext(2)
	src := c.Parallelize("src", 2, 4096, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := 0; i < 100; i++ {
			out = append(out, i)
		}
		return out
	})
	pol := &alwaysCheckpoint{}
	tb := MustTestbed(TestbedOpts{Nodes: 2, Policy: pol})
	res, err := tb.Engine.RunJob(src, ActionMaterialize)
	if err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunUntil(tb.Clock.Now() + simclock.Hour)
	if res.Stats.CheckpointTasks != 2 {
		t.Errorf("job checkpoint tasks = %d, want 2", res.Stats.CheckpointTasks)
	}
	if tb.Engine.Snapshot().CheckpointTasks != 2 {
		t.Errorf("engine checkpoint tasks = %d, want 2", tb.Engine.Snapshot().CheckpointTasks)
	}
	if tb.Engine.Snapshot().CheckpointBytes == 0 || tb.Engine.Snapshot().CkptSeconds == 0 {
		t.Error("checkpoint volume/time not recorded")
	}
}

func TestSystemLevelCheckpointBaseline(t *testing.T) {
	c := rdd.NewContext(4)
	cached := c.Parallelize("src", 8, 1<<20, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := 0; i < 64; i++ { // 64 MB per partition
			out = append(out, i)
		}
		return out
	}).Map("m", func(x rdd.Row) rdd.Row { return x }).Persist()

	cfg := DefaultConfig()
	cfg.SystemCheckpointInterval = 5
	tb := MustTestbed(TestbedOpts{Nodes: 4, Engine: cfg})
	if _, err := tb.Engine.RunJob(cached, ActionMaterialize); err != nil {
		t.Fatal(err)
	}
	// Run a long second job so system checkpoints fire against a warm
	// cache while work is in flight.
	slow := cached.Map("m2", func(x rdd.Row) rdd.Row { return x }).WithWeight(50)
	if _, err := tb.Engine.RunJob(slow, ActionMaterialize); err != nil {
		t.Fatal(err)
	}
	// Drain the in-flight system checkpoint writes.
	tb.Clock.RunUntil(tb.Clock.Now() + simclock.Hour)
	if tb.Engine.Snapshot().SystemCkptTasks == 0 {
		t.Fatal("system-level checkpoint tasks never ran")
	}
}

func TestMemoryPressureSpillsToDisk(t *testing.T) {
	// 8 partitions × 64 MB = 512 MB cached on one node with 128 MB of
	// memory: most blocks spill to the disk tier but remain readable.
	c := rdd.NewContext(4)
	cached := c.Parallelize("big", 8, 1<<20, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := 0; i < 64; i++ {
			out = append(out, i)
		}
		return out
	}).Map("id", func(x rdd.Row) rdd.Row { return x }).Persist()

	tb := MustTestbed(TestbedOpts{Nodes: 1, MemBytes: 128 << 20, DiskBytes: 4 << 30})
	if _, err := tb.Engine.RunJob(cached, ActionMaterialize); err != nil {
		t.Fatal(err)
	}
	mem, disk := tb.Engine.CachedBytes()
	if mem > 128<<20 {
		t.Fatalf("memory tier over capacity: %d", mem)
	}
	if disk == 0 {
		t.Fatal("nothing spilled to disk despite memory pressure")
	}
	// Re-reading everything must still hit the cache, slower.
	res, err := tb.Engine.RunJob(cached, ActionCount)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 8*64 {
		t.Fatalf("count = %d", res.Count)
	}
	if res.Stats.CacheHits == 0 {
		t.Error("spilled blocks should still be cache hits")
	}
}

func TestDeadlockWithoutNodesReportsError(t *testing.T) {
	c := rdd.NewContext(2)
	src := c.Parallelize("src", 2, 8, func(part int) []rdd.Row { return []rdd.Row{part} })
	tb := MustTestbed(TestbedOpts{Nodes: 2})
	// Remove both nodes with no replacement before submitting: the job
	// can never run.
	for _, n := range tb.Cluster.LiveNodes() {
		if err := tb.Cluster.RevokeNow(n.ID, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.Engine.RunJob(src, ActionCollect); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (float64, []rdd.Row) {
		c := rdd.NewContext(4)
		target := pipeline(c, 2000, 6)
		tb := MustTestbed(TestbedOpts{Nodes: 5})
		tb.RevokeNodes(30, 2, true)
		res, err := tb.Engine.RunJob(target, ActionCollect)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency(), res.Rows
	}
	l1, r1 := run()
	l2, r2 := run()
	if l1 != l2 {
		t.Fatalf("latencies differ across identical runs: %v vs %v", l1, l2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("row counts differ: %d vs %d", len(r1), len(r2))
	}
	key := func(r rdd.Row) string { kv := r.(rdd.KV); return fmt.Sprint(kv.K, "=", kv.V) }
	a := make([]string, len(r1))
	b := make([]string, len(r2))
	for i := range r1 {
		a[i], b[i] = key(r1[i]), key(r2[i])
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("row contents differ across identical runs")
		}
	}
}

// workersScenarioResult is everything observable about one fixed-seed
// run: delivered rows (in delivery order), job stats, engine counters,
// the full trace event sequence, and the deterministic metric snapshot.
type workersScenarioResult struct {
	rows   []rdd.Row
	stats  JobStats
	snap   Metrics
	events []obs.Event
	prom   string
}

// heavyPipeline is the two-shuffle program with task weights large
// enough (~10 s of virtual compute per source partition) that a
// revocation a few seconds in always catches a dispatch round's tasks
// mid-flight.
func heavyPipeline(c *rdd.Context, n, parts int) *rdd.RDD {
	src := c.Parallelize("ints", parts, 1<<20, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := part; i < n; i += parts {
			out = append(out, i)
		}
		return out
	}).WithWeight(8)
	return src.
		Filter("odd", func(x rdd.Row) bool { return x.(int)%2 == 1 }).
		Map("kv", func(x rdd.Row) rdd.Row { return rdd.KV{K: x.(int) % 20, V: x.(int)} }).
		ReduceByKey("sum", parts, func(a, b rdd.Row) rdd.Row { return a.(int) + b.(int) }).
		Map("rekey", func(x rdd.Row) rdd.Row { kv := x.(rdd.KV); return rdd.KV{K: kv.K.(int) % 5, V: kv.V} }).
		ReduceByKey("sum2", parts, func(a, b rdd.Row) rdd.Row { return a.(int) + b.(int) })
}

// runWorkersScenario executes the canonical determinism scenario —
// a two-shuffle pipeline racing two replacement revocations with an
// always-checkpoint policy — at the given worker-pool width.
func runWorkersScenario(t *testing.T, workers int) workersScenarioResult {
	t.Helper()
	c := rdd.NewContext(4)
	target := heavyPipeline(c, 3000, 8)
	bundle := obs.New(obs.Options{RingCapacity: 1 << 16})
	tb := MustTestbed(TestbedOpts{
		Nodes: 5, Workers: workers, Policy: &alwaysCheckpoint{}, Obs: bundle,
	})
	if got := tb.Engine.Workers(); workers > 0 && got != workers {
		t.Fatalf("engine workers = %d, want %d", got, workers)
	}
	tb.RevokeNodes(5, 2, true)
	res, err := tb.Engine.RunJob(target, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the asynchronous checkpoint writes.
	tb.Clock.RunUntil(tb.Clock.Now() + simclock.Hour)
	var raw strings.Builder
	if err := bundle.Reg.WritePrometheus(&raw); err != nil {
		t.Fatal(err)
	}
	// Wall-clock metrics (flint_exec_ prefix) legitimately differ across
	// widths and are outside the determinism contract.
	var prom strings.Builder
	for _, line := range strings.Split(raw.String(), "\n") {
		if !strings.Contains(line, "flint_exec_") {
			prom.WriteString(line)
			prom.WriteByte('\n')
		}
	}
	return workersScenarioResult{
		rows:   res.Rows,
		stats:  res.Stats,
		snap:   tb.Engine.Snapshot(),
		events: bundle.Tracer.Events(),
		prom:   prom.String(),
	}
}

// TestWorkersDeterminism is the tentpole acceptance bar: any worker-pool
// width must produce byte-identical rows, stats, engine counters, metric
// snapshots and trace event order to the fully serial engine.
func TestWorkersDeterminism(t *testing.T) {
	base := runWorkersScenario(t, 1)
	if base.snap.TasksKilled == 0 {
		t.Fatal("scenario must kill tasks for the comparison to mean anything")
	}
	for _, w := range []int{2, 4, 8} {
		got := runWorkersScenario(t, w)
		if !reflect.DeepEqual(got.rows, base.rows) {
			t.Errorf("workers=%d: delivered rows differ from workers=1", w)
		}
		if got.stats != base.stats {
			t.Errorf("workers=%d: job stats differ:\n  %+v\n  %+v", w, got.stats, base.stats)
		}
		if got.snap != base.snap {
			t.Errorf("workers=%d: engine counters differ:\n  %+v\n  %+v", w, got.snap, base.snap)
		}
		if len(got.events) != len(base.events) {
			t.Fatalf("workers=%d: %d trace events, workers=1 emitted %d", w, len(got.events), len(base.events))
		}
		for i := range base.events {
			if got.events[i] != base.events[i] {
				t.Fatalf("workers=%d: trace event %d differs:\n  %+v\n  %+v", w, i, got.events[i], base.events[i])
			}
		}
		if got.prom != base.prom {
			t.Errorf("workers=%d: metric snapshots differ", w)
		}
	}
}

// TestRevocationRacesParallelRound revokes nodes while their tasks are
// mid-flight in virtual time — after a dispatch round computed their
// effects on workers, before their completion events fire. The killed
// tasks' effects must be discarded (onTaskDone early-returns), the work
// relaunched, and the answer untouched, at every pool width.
func TestRevocationRacesParallelRound(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			c := rdd.NewContext(4)
			src := c.Parallelize("heavy", 16, 1<<20, func(part int) []rdd.Row {
				var out []rdd.Row
				for i := 0; i < 100; i++ {
					out = append(out, rdd.KV{K: part % 5, V: 1})
				}
				return out
			}).WithWeight(20) // ~30 s per task: all in flight at t=5
			target := src.ReduceByKey("sum", 4, func(a, b rdd.Row) rdd.Row {
				return a.(int) + b.(int)
			})
			want := asKVMap(t, rdd.CollectLocal(target))

			tb := MustTestbed(TestbedOpts{Nodes: 4, Workers: w})
			tb.RevokeNodes(5, 2, true)
			res, err := tb.Engine.RunJob(target, ActionCollect)
			if err != nil {
				t.Fatal(err)
			}
			snap := tb.Engine.Snapshot()
			if snap.TasksKilled == 0 {
				t.Fatal("revocation at t=5 should catch launched tasks mid-flight")
			}
			if res.Stats.TasksLaunched <= 16+4 {
				t.Errorf("killed partitions were not relaunched (launched=%d)", res.Stats.TasksLaunched)
			}
			got := asKVMap(t, res.Rows)
			if len(got) != len(want) {
				t.Fatalf("key counts differ: %d vs %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %d: engine %d, oracle %d (killed task effects leaked)", k, got[k], v)
				}
			}
		})
	}
}

// TestWorkersConfigResolution pins the Config.Workers contract: explicit
// values win, 1 is serial, 0 falls back to the process default installed
// with SetDefaultWorkers.
func TestWorkersConfigResolution(t *testing.T) {
	tb := MustTestbed(TestbedOpts{Nodes: 1, Workers: 3})
	if got := tb.Engine.Workers(); got != 3 {
		t.Errorf("explicit workers = %d, want 3", got)
	}
	SetDefaultWorkers(5)
	defer SetDefaultWorkers(0)
	tb2 := MustTestbed(TestbedOpts{Nodes: 1})
	if got := tb2.Engine.Workers(); got != 5 {
		t.Errorf("process-default workers = %d, want 5", got)
	}
	tb3 := MustTestbed(TestbedOpts{Nodes: 1, Workers: 1})
	if got := tb3.Engine.Workers(); got != 1 {
		t.Errorf("serial workers = %d, want 1", got)
	}
}

func TestInteractiveSequentialJobs(t *testing.T) {
	c := rdd.NewContext(4)
	table := c.Parallelize("table", 8, 256, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := 0; i < 200; i++ {
			out = append(out, rdd.KV{K: i % 10, V: 1})
		}
		return out
	}).Persist()

	tb := MustTestbed(TestbedOpts{Nodes: 4})
	// Warm the cache.
	if _, err := tb.Engine.RunJob(table, ActionMaterialize); err != nil {
		t.Fatal(err)
	}
	// Issue three queries with think time between them.
	var latencies []float64
	for q := 0; q < 3; q++ {
		query := table.ReduceByKey(fmt.Sprintf("q%d", q), 4, func(a, b rdd.Row) rdd.Row {
			return a.(int) + b.(int)
		})
		res, err := tb.Engine.RunJob(query, ActionCollect)
		if err != nil {
			t.Fatal(err)
		}
		latencies = append(latencies, res.Latency())
		tb.Clock.Advance(60) // user think time
	}
	// Warm-cache queries should be fast and consistent.
	for _, l := range latencies {
		if l > 60 {
			t.Errorf("warm query latency %.1f s too high", l)
		}
	}
}

func TestUnionAndCoalesceOnEngine(t *testing.T) {
	c := rdd.NewContext(4)
	a := c.FromRows("a", 3, 8, []rdd.Row{1, 2, 3})
	b := c.FromRows("b", 2, 8, []rdd.Row{4, 5})
	u := a.Union("u", b).Coalesce("co", 2)
	want := map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	tb := MustTestbed(TestbedOpts{Nodes: 2})
	res, err := tb.Engine.RunJob(u, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !want[r.(int)] {
			t.Fatalf("unexpected row %v", r)
		}
	}
}

func TestReplacementNodeJoinsAndWorks(t *testing.T) {
	c := rdd.NewContext(2)
	src := c.Parallelize("src", 16, 1<<20, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := 0; i < 100; i++ {
			out = append(out, part)
		}
		return out
	}).WithWeight(20) // ~30 s per task so the job outlives the replacement delay
	tb := MustTestbed(TestbedOpts{Nodes: 2})
	tb.RevokeNodes(1, 1, true)
	res, err := tb.Engine.RunJob(src, ActionCount)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1600 {
		t.Fatalf("count = %d", res.Count)
	}
	if tb.Engine.Snapshot().NodesJoined != 3 { // 2 initial + 1 replacement
		t.Errorf("NodesJoined = %d, want 3", tb.Engine.Snapshot().NodesJoined)
	}
	if tb.Engine.LiveNodeCount() != 2 {
		t.Errorf("live nodes = %d, want 2", tb.Engine.LiveNodeCount())
	}
}

func TestCostModelTimes(t *testing.T) {
	m := CostModel{ComputeRate: 100, NetBW: 50, DiskBW: 25, TaskOverhead: 0.1}
	if got := m.computeTime(200, 1); got != 2 {
		t.Errorf("computeTime = %v", got)
	}
	if got := m.computeTime(200, 2); got != 4 {
		t.Errorf("weighted computeTime = %v", got)
	}
	if got := m.computeTime(200, 0); got != 2 {
		t.Errorf("zero-weight computeTime = %v", got)
	}
	if m.computeTime(0, 1) != 0 || m.netTime(0) != 0 || m.diskTime(-5) != 0 {
		t.Error("zero/negative bytes must cost nothing")
	}
	if m.netTime(100) != 2 || m.diskTime(100) != 4 {
		t.Error("net/disk times wrong")
	}
}
