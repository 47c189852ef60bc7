package experiments

import (
	"strings"
	"testing"

	"flint/internal/obs"
)

// fullWalkProbes is the lineage-walk step count of detbench
// pagerank-revoke when every pump re-walked the narrow lineage of every
// needed partition (969 461 steps to enqueue 1 071 tasks).
const fullWalkProbes = 969_461

// TestPageRankRevokeSchedulerWork pins the incremental control plane on
// detbench pagerank-revoke: the scheduler must take at least 10× fewer
// lineage-walk steps than the full re-derivation did, while making the
// same decisions — identical outcome, task counts, makespan and trace.
func TestPageRankRevokeSchedulerWork(t *testing.T) {
	for _, sc := range detScenarios(1) {
		if sc.name != "pagerank-revoke" {
			continue
		}
		out, err := runDetScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if out.Probes == 0 || out.Probes*10 > fullWalkProbes {
			t.Errorf("lineage probes = %d, want in (0, %d]", out.Probes, fullWalkProbes/10)
		}
		if out.Tasks != 1071 || out.Killed != 4 || out.Recomputed != 68 ||
			out.OutcomeFNV != 0x5c9b147d3c3c0a99 || out.TraceFNV != 0x8a488dbf03e7af7e {
			t.Errorf("scheduling changed: tasks=%d killed=%d recomputed=%d outcome=%016x trace=%016x",
				out.Tasks, out.Killed, out.Recomputed, out.OutcomeFNV, out.TraceFNV)
		}
		t.Logf("lineage probes: %d (full re-derivation: %d)", out.Probes, fullWalkProbes)
		return
	}
	t.Fatal("detbench has no pagerank-revoke scenario")
}

// TestDetbenchRejectsTruncatedTrace: a ring too small for the events
// emitted must fail detbench rather than let it fingerprint the surviving
// tail, and the error must say how many events were lost.
func TestDetbenchRejectsTruncatedTrace(t *testing.T) {
	tr := obs.NewTracer(4)
	for i := 0; i < 4; i++ {
		tr.Emit(obs.Event{Type: obs.EvTaskDone, Task: i})
	}
	if events, err := fullTrace(tr); err != nil || len(events) != 4 {
		t.Fatalf("full ring: %d events, err %v", len(events), err)
	}
	tr.Emit(obs.Event{Type: obs.EvTaskDone, Task: 4})
	if _, err := fullTrace(tr); err == nil || !strings.Contains(err.Error(), "(1 dropped)") {
		t.Fatalf("overflowed ring: err = %v, want an overflow error counting 1 dropped event", err)
	}
	for _, sc := range detScenarios(1)[:1] {
		out, err := runDetScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out.MetricsText, "flint_trace_dropped_events") {
			t.Error("the diffable metric dump should leave out the dropped-events gauge")
		}
	}
}
