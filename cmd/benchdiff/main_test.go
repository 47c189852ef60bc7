package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func anchorRec() benchRecord {
	return benchRecord{
		Rev: "a7c1211",
		Scenarios: []benchEntry{
			{Name: "detbench/wordcount", VirtualS: 11.760655641555786, WallS: 2.0,
				OutcomeFNV: "27a3aed45e3b4211", TraceFNV: "492240aae7972f7b"},
			{Name: "detbench/pagerank-revoke", VirtualS: 275.25269763271007, WallS: 30.0},
		},
	}
}

func TestDiffRecordsNoDrift(t *testing.T) {
	fresh := anchorRec()
	fresh.Rev = "deadbee"
	fresh.Scenarios[0].WallS = 1.0 // wall changes never gate
	fresh.Scenarios[1].OutcomeFNV = "5c9b147d3c3c0a99"
	drift, report := diffRecords(anchorRec(), fresh, 0.10)
	if len(drift) != 0 {
		t.Fatalf("unexpected drift: %v", drift)
	}
	if !strings.Contains(report, "2.00x") {
		t.Fatalf("wall ratio missing from report:\n%s", report)
	}
	if !strings.Contains(report, "No drift") {
		t.Fatalf("no-drift summary missing:\n%s", report)
	}
	// Anchor without FNVs vs fresh with them: not gated, not drift.
	if !strings.Contains(report, "n/a") {
		t.Fatalf("FNV-less anchor comparison should be n/a:\n%s", report)
	}
}

func TestDiffRecordsVirtualDrift(t *testing.T) {
	fresh := anchorRec()
	fresh.Scenarios[0].VirtualS += 0.000001
	drift, report := diffRecords(anchorRec(), fresh, 0.10)
	if len(drift) != 1 || !strings.Contains(drift[0], "virtual makespan") {
		t.Fatalf("drift = %v", drift)
	}
	if !strings.Contains(report, "DRIFT") {
		t.Fatalf("report lacks DRIFT marker:\n%s", report)
	}
}

func TestDiffRecordsFNVDrift(t *testing.T) {
	fresh := anchorRec()
	fresh.Scenarios[0].OutcomeFNV = "0000000000000000"
	fresh.Scenarios[0].TraceFNV = "1111111111111111"
	drift, _ := diffRecords(anchorRec(), fresh, 0.10)
	if len(drift) != 2 {
		t.Fatalf("want outcome+trace drift, got %v", drift)
	}
}

func TestDiffRecordsMissingScenario(t *testing.T) {
	fresh := anchorRec()
	fresh.Scenarios = fresh.Scenarios[:1]
	drift, _ := diffRecords(anchorRec(), fresh, 0.10)
	if len(drift) != 1 || !strings.Contains(drift[0], "missing") {
		t.Fatalf("drift = %v", drift)
	}
}

// allocRecs returns an anchor/fresh pair whose first scenario carries
// the given alloc counts, so the allocs gate applies when both are set.
func allocRecs(anchorAllocs, freshAllocs uint64) (benchRecord, benchRecord) {
	anchor := anchorRec()
	anchor.Scenarios[0].Allocs = anchorAllocs
	fresh := anchorRec()
	fresh.Scenarios[0].Allocs = freshAllocs
	return anchor, fresh
}

func TestDiffRecordsAllocsWithinTolerance(t *testing.T) {
	anchor, fresh := allocRecs(1000, 1100) // exactly at the +10% limit
	drift, report := diffRecords(anchor, fresh, 0.10)
	if len(drift) != 0 {
		t.Fatalf("allocs at the tolerance limit must not gate: %v", drift)
	}
	if !strings.Contains(report, "0.91x") {
		t.Fatalf("allocs ratio missing from report:\n%s", report)
	}
}

func TestDiffRecordsAllocsRegression(t *testing.T) {
	anchor, fresh := allocRecs(1000, 1101) // one past the +10% limit
	drift, report := diffRecords(anchor, fresh, 0.10)
	if len(drift) != 1 || !strings.Contains(drift[0], "allocations regressed") {
		t.Fatalf("drift = %v", drift)
	}
	if !strings.Contains(report, "DRIFT (1000 → 1101)") {
		t.Fatalf("report lacks allocs DRIFT marker:\n%s", report)
	}
}

func TestDiffRecordsAllocsZeroTolerance(t *testing.T) {
	anchor, fresh := allocRecs(1000, 1001)
	drift, _ := diffRecords(anchor, fresh, 0)
	if len(drift) != 1 || !strings.Contains(drift[0], "allocations regressed") {
		t.Fatalf("zero tolerance must gate any growth, drift = %v", drift)
	}
}

func TestDiffRecordsAllocsImprovementNeverGates(t *testing.T) {
	anchor, fresh := allocRecs(1000, 400)
	drift, report := diffRecords(anchor, fresh, 0.10)
	if len(drift) != 0 {
		t.Fatalf("fewer allocations must not gate: %v", drift)
	}
	if !strings.Contains(report, "2.50x") {
		t.Fatalf("allocs ratio missing from report:\n%s", report)
	}
}

func TestDiffRecordsAllocsMissingCounts(t *testing.T) {
	// Records from before alloc accounting landed carry zero: n/a, no gate.
	anchor, fresh := allocRecs(0, 5000)
	drift, report := diffRecords(anchor, fresh, 0.10)
	if len(drift) != 0 {
		t.Fatalf("anchor without allocs must not gate: %v", drift)
	}
	if !strings.Contains(report, "n/a") {
		t.Fatalf("missing allocs should render n/a:\n%s", report)
	}
}

func TestDiffRecordsUnanchoredScenarioReported(t *testing.T) {
	// A fresh scenario the anchor lacks cannot be gated, but it must not
	// vanish from the report either.
	fresh := anchorRec()
	fresh.Scenarios = append(fresh.Scenarios, benchEntry{Name: "detbench/tpch-q6", VirtualS: 42.5, WallS: 0.25,
		OutcomeFNV: "0123456789abcdef", TraceFNV: "fedcba9876543210"})
	drift, report := diffRecords(anchorRec(), fresh, 0.10)
	if len(drift) != 0 {
		t.Fatalf("an unanchored scenario is not drift: %v", drift)
	}
	if !strings.Contains(report, "| detbench/tpch-q6 | UNANCHORED 42.5 | 0123456789abcdef | fedcba9876543210 |") {
		t.Fatalf("unanchored scenario missing from report:\n%s", report)
	}
	if strings.Count(report, "UNANCHORED") != 2 { // the row plus the summary legend
		t.Fatalf("only the fresh-only scenario should be UNANCHORED:\n%s", report)
	}
}

func writeRecord(t *testing.T, rec benchRecord) string {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_"+rec.Rev+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFailsOnUnanchoredScenario: the report lists an unanchored
// scenario without calling it drift, but the run still exits 1 — an
// anchor that does not cover every scenario is a disarmed gate.
func TestRunFailsOnUnanchoredScenario(t *testing.T) {
	anchor := writeRecord(t, anchorRec())
	same := anchorRec()
	same.Rev = "deadbee"
	var out, errOut strings.Builder
	if code := run(anchor, writeRecord(t, same), "", 0.10, &out, &errOut); code != 0 {
		t.Fatalf("fully anchored record: exit %d, stderr:\n%s", code, errOut.String())
	}
	extra := anchorRec()
	extra.Rev = "cafef00"
	extra.Scenarios = append(extra.Scenarios, benchEntry{Name: "detbench/tpch-q6", VirtualS: 42.5})
	out.Reset()
	errOut.Reset()
	if code := run(anchor, writeRecord(t, extra), "", 0.10, &out, &errOut); code != 1 {
		t.Fatalf("unanchored scenario: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "UNANCHORED: detbench/tpch-q6") {
		t.Errorf("stderr does not name the unanchored scenario:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "| detbench/tpch-q6 | UNANCHORED 42.5 |") {
		t.Errorf("report lacks the UNANCHORED row:\n%s", out.String())
	}
	if code := run(anchor, filepath.Join(t.TempDir(), "missing.json"), "", 0.10, &out, &errOut); code != 2 {
		t.Errorf("unreadable fresh record: exit %d, want 2", code)
	}
}
