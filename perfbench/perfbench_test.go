package main

import (
	"io"
	"math"
	"testing"

	"flint/internal/exec"
	"flint/internal/experiments"
	"flint/internal/rdd"
)

// outcome is everything of an iteration that must not depend on whether
// the timing wrappers are installed.
type outcome struct {
	virtualS, costUSD           float64
	tasks, killed, recomputed   int64
	events                      uint64
	attempted, failed           int
	ckptWrites, ckptMarks, revs int64
}

func outcomeOf(t *testing.T, w spec, seed int64, o options) (outcome, *sample) {
	t.Helper()
	s, err := iterate(w, seed, o, newOracle())
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	for _, f := range s.failures {
		t.Errorf("%s seed %d: %s", w.name, seed, f)
	}
	d := s.delta
	return outcome{
		virtualS: s.virtualS, costUSD: s.costUSD,
		tasks: d.tasks, killed: d.killed, recomputed: d.recomputed,
		events:    s.events,
		attempted: s.attempted, failed: s.failed,
		ckptWrites: d.ckptWrites, ckptMarks: d.ckptMarks, revs: d.revocations,
	}, s
}

// TestWrappersAreTransparent runs every workload with and without the
// checkpoint-policy and selector wrappers (tpch-interactive then uses
// core.ModeInteractive directly) and requires identical outcomes,
// including the program's own event count.
func TestWrappersAreTransparent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, _ := outcomeOf(t, w, 42, options{workers: 2, events: true})
			wrapped, s := outcomeOf(t, w, 42, options{workers: 2, events: true, wrap: true})
			if plain != wrapped {
				t.Fatalf("wrapped run differs:\n plain   %+v\n wrapped %+v", plain, wrapped)
			}
			if plain.attempted == 0 || plain.failed != 0 {
				t.Fatalf("oracle checked %d jobs, %d failed", plain.attempted, plain.failed)
			}
			if s.dropped != 0 {
				t.Fatalf("event tracer dropped %d events", s.dropped)
			}
		})
	}
}

// TestPageRankRevokeMatchesDetbench pins pagerank-revoke at seed 42 to
// the detbench scenario it reproduces.
func TestPageRankRevokeMatchesDetbench(t *testing.T) {
	w, _ := lookup("pagerank-revoke")
	got, _ := outcomeOf(t, w, 42, options{workers: 2, events: true, wrap: true})
	if got.virtualS != 275.25269763271007 || got.tasks != 1071 || got.killed != 4 || got.recomputed != 68 {
		t.Fatalf("virtual_s %v, tasks/killed/recomputed %d/%d/%d; want 275.25269763271007, 1071/4/68",
			got.virtualS, got.tasks, got.killed, got.recomputed)
	}
	det, err := experiments.Detbench(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range det.Scenarios {
		if sc.Name != "pagerank-revoke" {
			continue
		}
		if sc.VirtualS != got.virtualS || int64(sc.Tasks) != got.tasks || int64(sc.Killed) != got.killed ||
			sc.Recomputed != got.recomputed || uint64(sc.TraceN) != got.events {
			t.Fatalf("detbench %+v differs from the benchmark's %+v", sc, got)
		}
		return
	}
	t.Fatal("detbench has no pagerank-revoke scenario")
}

// TestOracleSecondSeed runs every workload at a seed other than the
// default, with the oracle checking every job.
func TestOracleSecondSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			got, _ := outcomeOf(t, w, 7, options{workers: 2})
			if got.attempted == 0 || got.failed != 0 {
				t.Fatalf("oracle checked %d jobs, %d failed", got.attempted, got.failed)
			}
		})
	}
}

// TestOracleCatchesWrongRows feeds the oracle a result with one value
// changed and a wrong count.
func TestOracleCatchesWrongRows(t *testing.T) {
	ctx := rdd.NewContext(2)
	r := ctx.Parallelize("nums", 2, 8, func(part int) []rdd.Row {
		return []rdd.Row{rdd.KV{K: part, V: 1.5}, rdd.KV{K: part + 10, V: 2.5}}
	})
	rows := rdd.CollectLocal(r)
	o := newOracle()
	if _, err := o.check(0, jobRun{target: r, action: exec.ActionCollect, res: &exec.Result{Rows: rows}}); err != nil {
		t.Fatalf("right rows rejected: %v", err)
	}
	bad := append([]rdd.Row(nil), rows...)
	bad[1] = rdd.KV{K: 10, V: 2.5000001}
	if _, err := o.check(0, jobRun{target: r, action: exec.ActionCollect, res: &exec.Result{Rows: bad}}); err == nil {
		t.Fatal("changed value accepted")
	}
	if _, err := o.check(0, jobRun{target: r, action: exec.ActionCount, res: &exec.Result{Count: 3}}); err == nil {
		t.Fatal("wrong count accepted")
	}
	if checked, _ := o.check(0, jobRun{target: r, action: exec.ActionMaterialize, res: &exec.Result{}}); checked {
		t.Fatal("materialize job counted as checked")
	}
}

// TestSelfTimes checks the span accounting on a hand-built tree:
// iteration ⊃ job ⊃ ckpt callback ⊃ MTTF, with fan-out inside the job.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{layer: layerHarness, parent: -1, start: 0, end: 1},                      // setup
		{layer: layerTrace, parent: 0, start: 0.1, end: 0.4},                     // trace.gen
		{layer: layerHarness, parent: -1, start: 1, end: 11, fan0: 5, fan1: 8.5}, // iteration
		{layer: layerJob, parent: 2, start: 1, end: 9, fan0: 5, fan1: 8},         // job with 3 s fan-out
		{layer: layerCkpt, parent: 3, start: 2, end: 4, fan0: 5, fan1: 5},        // ckpt callback
		{layer: layerMTTF, parent: 4, start: 2.5, end: 3.5, fan0: 5, fan1: 5},    // MTTF
		{layer: layerThink, parent: 2, start: 9, end: 10.5, fan0: 8, fan1: 8.5},
	}
	var s sample
	s.wallS = 10
	selfTimes(&s, spans, 0, 2)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	want := map[layer]float64{layerJob: 3, layerCkpt: 1, layerMTTF: 1, layerThink: 1, layerHarness: 0.5}
	for l, v := range want {
		if !near(s.self[l], v) {
			t.Errorf("%s self %v, want %v", layerNames[l], s.self[l], v)
		}
	}
	if !near(s.fanoutS, 3.5) || !near(s.setupSelf[layerTrace], 0.3) {
		t.Errorf("fan-out %v, trace.gen %v; want 3.5, 0.3", s.fanoutS, s.setupSelf[layerTrace])
	}
	if c := coverage(&s); !near(c, 0.95) {
		t.Errorf("coverage %v, want 0.95", c)
	}
}

// TestNetWall checks the steal correction: steal is shared out over the
// CPUs the process kept busy, never over fewer than one.
func TestNetWall(t *testing.T) {
	for _, c := range []struct{ wall, stolen, cpu, want float64 }{
		{1, 0, 1, 1},       // no steal
		{1, 0.2, 0.8, 0.8}, // one busy CPU: all steal delayed the region
		{1, 0.4, 2, 0.8},   // two busy CPUs: steal accrued on both
		{1, 3, 1, 0},       // never negative
		{0, 0.1, 0, 0},     // empty region
	} {
		if got := netWall(c.wall, c.stolen, c.cpu); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("netWall(%v, %v, %v) = %v, want %v", c.wall, c.stolen, c.cpu, got, c.want)
		}
	}
}
