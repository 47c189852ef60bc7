package exec

import (
	"testing"

	"flint/internal/dfs"
	"flint/internal/obs"
	"flint/internal/rdd"
	"flint/internal/simclock"
)

// scriptedInjector is a FaultInjector built from optional closures; nil
// hooks never fire.
type scriptedInjector struct {
	ckpt  func(rddID, part, attempt int, now float64) bool
	fetch func(src, attempt int, now float64) bool
	slow  func(node int, now float64) float64
}

func (s *scriptedInjector) CkptWriteFails(rddID, part, attempt int, now float64) bool {
	return s.ckpt != nil && s.ckpt(rddID, part, attempt, now)
}

func (s *scriptedInjector) FetchFails(src, attempt int, now float64) bool {
	return s.fetch != nil && s.fetch(src, attempt, now)
}

func (s *scriptedInjector) Slowdown(node int, now float64) float64 {
	if s.slow == nil {
		return 1
	}
	return s.slow(node, now)
}

// failureCountingPolicy checkpoints everything and records abandoned
// writes (FailureAwarePolicy).
type failureCountingPolicy struct {
	alwaysCheckpoint
	failed int
}

func (p *failureCountingPolicy) NotifyCheckpointFailed(r *rdd.RDD, part, attempts int, now float64) {
	p.failed++
}

func ckptTestRDD(c *rdd.Context) *rdd.RDD {
	src := c.Parallelize("src", 4, 1024, func(part int) []rdd.Row {
		var out []rdd.Row
		for i := 0; i < 50; i++ {
			out = append(out, part*50+i)
		}
		return out
	})
	return src.Map("m", func(x rdd.Row) rdd.Row { return x.(int) * 3 })
}

func TestCheckpointWriteRetriesThenSucceeds(t *testing.T) {
	c := rdd.NewContext(4)
	derived := ckptTestRDD(c)
	pol := &failureCountingPolicy{}
	bundle := obs.New(obs.Options{Disabled: true, RingCapacity: 1})
	tb := checked(MustTestbed(TestbedOpts{Nodes: 4, Policy: pol, Obs: bundle}))
	// Every write fails twice, then succeeds on the third of the four
	// allowed attempts.
	tb.Engine.SetFaultInjector(&scriptedInjector{
		ckpt: func(rddID, part, attempt int, now float64) bool { return attempt <= 2 },
	})
	if _, err := tb.Engine.RunJob(derived, ActionMaterialize); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunUntil(tb.Clock.Now() + simclock.Hour)
	// The policy checkpoints both pipelined RDDs (source + derived), so 8
	// partition writes land, each after two failed attempts.
	if pol.done != 8 {
		t.Fatalf("checkpoints completed = %d, want 8", pol.done)
	}
	if pol.failed != 0 {
		t.Fatalf("writes abandoned = %d, want 0", pol.failed)
	}
	for p := 0; p < 4; p++ {
		if !tb.Store.Has(dfs.Key(derived.ID, p)) {
			t.Fatalf("partition %d missing from store; keys: %v", p, tb.Store.Keys(""))
		}
	}
	if got := bundle.ChaosCkptWriteFailures.Value(); got != 16 {
		t.Errorf("injected write failures = %d, want 16 (2 per write)", got)
	}
	if got := bundle.RetryAttempts.Value(); got != 16 {
		t.Errorf("retry attempts = %d, want 16", got)
	}
	if got := bundle.RetryExhausted.Value(); got != 0 {
		t.Errorf("retry exhaustions = %d, want 0", got)
	}
	if len(tb.Engine.pendingCkpt) != 0 {
		t.Errorf("pendingCkpt not drained: %v", tb.Engine.pendingCkpt)
	}
	if err := tb.Engine.Audit(); err != nil {
		t.Errorf("audit after retries: %v", err)
	}
}

func TestCheckpointWriteRetryExhausts(t *testing.T) {
	c := rdd.NewContext(4)
	derived := ckptTestRDD(c)
	pol := &failureCountingPolicy{}
	bundle := obs.New(obs.Options{Disabled: true, RingCapacity: 1})
	tb := checked(MustTestbed(TestbedOpts{Nodes: 4, Policy: pol, Obs: bundle}))
	tb.Engine.SetFaultInjector(&scriptedInjector{
		ckpt: func(rddID, part, attempt int, now float64) bool { return true },
	})
	res, err := tb.Engine.RunJob(derived, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunUntil(tb.Clock.Now() + simclock.Hour)
	if len(res.Rows) != 200 {
		t.Fatalf("rows = %d, want 200 (job must survive abandoned checkpoints)", len(res.Rows))
	}
	if pol.done != 0 {
		t.Fatalf("checkpoints completed = %d, want 0", pol.done)
	}
	if pol.failed != 8 {
		t.Fatalf("abandoned-write notifications = %d, want 8 (both pipelined RDDs)", pol.failed)
	}
	if got := bundle.RetryExhausted.Value(); got != 8 {
		t.Errorf("retry exhaustions = %d, want 8", got)
	}
	if keys := tb.Store.Keys("rdd/"); len(keys) != 0 {
		t.Errorf("store should hold no checkpoints, has %v", keys)
	}
	if len(tb.Engine.pendingCkpt) != 0 {
		t.Errorf("pendingCkpt not drained: %v", tb.Engine.pendingCkpt)
	}
}

func TestFetchRetryChargesBackoffAndSucceeds(t *testing.T) {
	run := func(inj FaultInjector) (map[int]int, float64, *obs.Obs) {
		c := rdd.NewContext(4)
		target := pipeline(c, 2000, 4)
		bundle := obs.New(obs.Options{Disabled: true, RingCapacity: 1})
		tb := checked(MustTestbed(TestbedOpts{Nodes: 5, Obs: bundle}))
		tb.Engine.SetFaultInjector(inj)
		res, err := tb.Engine.RunJob(target, ActionCollect)
		if err != nil {
			t.Fatal(err)
		}
		return asKVMap(t, res.Rows), res.Latency(), bundle
	}

	want, baseLatency, _ := run(nil)
	// Every remote fetch fails twice before succeeding; the two backoff
	// waits (2 s + 4 s) are charged into the task's virtual duration.
	got, faultLatency, bundle := run(&scriptedInjector{
		fetch: func(src, attempt int, now float64) bool { return attempt <= 2 },
	})
	if !mapsEqual(want, got) {
		t.Fatalf("fetch retries changed the result: %v vs %v", got, want)
	}
	if faultLatency <= baseLatency {
		t.Errorf("backoff not charged: faulty %.2fs <= clean %.2fs", faultLatency, baseLatency)
	}
	if bundle.ChaosFetchFailures.Value() == 0 {
		t.Error("no injected fetch failures recorded")
	}
	if bundle.RetryAttempts.Value() == 0 {
		t.Error("no retry attempts recorded")
	}
	if bundle.RetryExhausted.Value() != 0 {
		t.Errorf("retry exhaustions = %d, want 0", bundle.RetryExhausted.Value())
	}
}

func TestFetchRetryExhaustionRecomputesParents(t *testing.T) {
	c := rdd.NewContext(4)
	target := pipeline(c, 2000, 4)
	cLocal := rdd.NewContext(4)
	want := asKVMap(t, rdd.CollectLocal(pipeline(cLocal, 2000, 4)))

	bundle := obs.New(obs.Options{Disabled: true, RingCapacity: 1})
	tb := checked(MustTestbed(TestbedOpts{Nodes: 5, Obs: bundle}))
	// Every remote fetch fails unconditionally while the window is open:
	// retries exhaust, the poisoned sources are dropped, and the parent
	// stage recomputes. Progress resumes once the window closes.
	tb.Engine.SetFaultInjector(&scriptedInjector{
		fetch: func(src, attempt int, now float64) bool { return now < 120 },
	})
	res, err := tb.Engine.RunJob(target, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	if got := asKVMap(t, res.Rows); !mapsEqual(want, got) {
		t.Fatalf("result diverged after recomputation: %v vs %v", got, want)
	}
	if bundle.RetryExhausted.Value() == 0 {
		t.Error("expected at least one exhausted fetch-retry sequence")
	}
	if bundle.Recomputed.Value() == 0 {
		t.Error("exhausted fetches must force lineage recomputation")
	}
	if err := tb.Engine.Audit(); err != nil {
		t.Errorf("audit after forced recomputation: %v", err)
	}
	if err := tb.Store.Audit(); err != nil {
		t.Errorf("store audit: %v", err)
	}
}

func TestStragglerSlowdownStretchesMakespan(t *testing.T) {
	run := func(inj FaultInjector) (float64, *obs.Obs) {
		c := rdd.NewContext(4)
		target := pipeline(c, 2000, 4)
		bundle := obs.New(obs.Options{Disabled: true, RingCapacity: 1})
		tb := checked(MustTestbed(TestbedOpts{Nodes: 5, Obs: bundle}))
		tb.Engine.SetFaultInjector(inj)
		res, err := tb.Engine.RunJob(target, ActionMaterialize)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency(), bundle
	}
	base, _ := run(nil)
	slow, bundle := run(&scriptedInjector{
		slow: func(node int, now float64) float64 { return 4 },
	})
	if slow < 2*base {
		t.Errorf("uniform 4x straggler stretched makespan only %.2fs -> %.2fs", base, slow)
	}
	if bundle.ChaosSlowdowns.Value() == 0 {
		t.Error("no slowed tasks recorded")
	}
}

func TestInertInjectorMatchesNilInjector(t *testing.T) {
	run := func(inj FaultInjector) float64 {
		c := rdd.NewContext(4)
		target := pipeline(c, 2000, 4)
		tb := checked(MustTestbed(TestbedOpts{Nodes: 5}))
		tb.Engine.SetFaultInjector(inj)
		res, err := tb.Engine.RunJob(target, ActionMaterialize)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency()
	}
	if a, b := run(nil), run(&scriptedInjector{}); a != b {
		t.Errorf("inert injector changed virtual latency: %.6f vs %.6f", a, b)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BackoffBase: 2, BackoffMax: 10}
	for _, tc := range []struct {
		attempt int
		want    float64
	}{{1, 2}, {2, 4}, {3, 8}, {4, 10}, {5, 10}} {
		if got := p.backoff(tc.attempt); got != tc.want {
			t.Errorf("backoff(%d) = %g, want %g", tc.attempt, got, tc.want)
		}
	}
	d := RetryPolicy{}.withDefaults()
	if d != DefaultRetryPolicy() {
		t.Errorf("withDefaults() = %+v, want %+v", d, DefaultRetryPolicy())
	}
}

func mapsEqual(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
