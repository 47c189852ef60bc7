package experiments

import "testing"

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
