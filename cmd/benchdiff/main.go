// Command benchdiff gates a freshly produced BENCH_<rev>.json against a
// committed anchor record (BENCH_93ae4fd.json). It fails — exit 1 — when
// any anchored scenario drifted: a missing scenario, a virtual-makespan
// change, or an outcome/trace FNV change. Wall seconds are reported as a
// ratio table (markdown, suitable for $GITHUB_STEP_SUMMARY) but never
// gate: they measure the machine, not the engine.
//
// Heap allocations sit between those poles. They are deterministic for a
// fixed toolchain (the workloads are seeded and replayed), so whenever
// both records carry counts the allocs column is enforced: a scenario
// whose allocation count grows past -allocs-tolerance (default 10%,
// absorbing Go-version churn) is drift. This is the bench-side twin of
// flintlint's hotalloc check — the static check catches boxing at the
// source, the gate catches whatever slips through at run time. Records
// from before alloc accounting landed stay informational.
//
// Fresh scenarios the anchor lacks have nothing to compare against; they
// are listed as UNANCHORED rows and fail the run (exit 1), so a new
// scenario cannot ship without the anchor being re-recorded to cover it.
//
// Usage:
//
//	benchdiff -anchor BENCH_93ae4fd.json -new BENCH_<rev>.json [-summary out.md]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchEntry mirrors cmd/flintbench's record line. FNV fields are empty
// in records written before the determinism fingerprints landed; the
// diff only gates fields both sides carry.
type benchEntry struct {
	Name        string  `json:"name"`
	VirtualS    float64 `json:"virtual_s"`
	WallS       float64 `json:"wall_s"`
	OutcomeFNV  string  `json:"outcome_fnv"`
	TraceFNV    string  `json:"trace_fnv"`
	TraceEvents int     `json:"trace_events"`
	Allocs      uint64  `json:"allocs"` // zero in records written before alloc accounting landed
}

type benchRecord struct {
	Rev       string       `json:"rev"`
	Workers   int          `json:"workers"`
	Scale     float64      `json:"scale"`
	Scenarios []benchEntry `json:"scenarios"`
}

func readRecord(path string) (benchRecord, error) {
	var rec benchRecord
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// diffRecords compares every anchored scenario against the fresh record,
// returning the drift findings and a markdown report with the
// virtual-makespan and wall-seconds ratio table. allocsTolerance is the
// fractional allocation growth permitted before a scenario's allocs
// count gates (0.10 = +10%); it applies when both records carry alloc
// counts. Fresh scenarios the anchor lacks are reported as UNANCHORED
// rows, not as drift; unanchored lists them for the exit status.
func diffRecords(anchor, fresh benchRecord, allocsTolerance float64) (drift []string, report string) {
	freshBy := make(map[string]benchEntry, len(fresh.Scenarios))
	for _, sc := range fresh.Scenarios {
		freshBy[sc.Name] = sc
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### bench-regression: %s vs anchor %s\n\n", orDash(fresh.Rev), orDash(anchor.Rev))
	b.WriteString("| scenario | virtual_s | outcome_fnv | trace_fnv | anchor wall_s | wall_s | wall ratio | allocs ratio |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, a := range anchor.Scenarios {
		f, ok := freshBy[a.Name]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: scenario missing from fresh record", a.Name))
			fmt.Fprintf(&b, "| %s | MISSING | — | — | %.3f | — | — | — |\n", a.Name, a.WallS)
			continue
		}
		status := func(anchorV, freshV, label string) string {
			if anchorV == "" || freshV == "" {
				return "n/a"
			}
			if anchorV != freshV {
				drift = append(drift, fmt.Sprintf("%s: %s drifted: anchor %s, fresh %s", a.Name, label, anchorV, freshV))
				return fmt.Sprintf("DRIFT (%s → %s)", anchorV, freshV)
			}
			return "ok " + freshV
		}
		virt := "ok"
		if f.VirtualS != a.VirtualS {
			drift = append(drift, fmt.Sprintf("%s: virtual makespan drifted: anchor %v, fresh %v", a.Name, a.VirtualS, f.VirtualS))
			virt = fmt.Sprintf("DRIFT (%v → %v)", a.VirtualS, f.VirtualS)
		} else {
			virt = fmt.Sprintf("ok %v", f.VirtualS)
		}
		ratio := "—"
		if a.WallS > 0 && f.WallS > 0 {
			ratio = fmt.Sprintf("%.2fx", a.WallS/f.WallS)
		}
		// Allocs gate within tolerance. "n/a" covers records from before
		// alloc accounting landed.
		allocs := "n/a"
		if a.Allocs > 0 && f.Allocs > 0 {
			allocs = fmt.Sprintf("%.2fx", float64(a.Allocs)/float64(f.Allocs))
			limit := uint64(float64(a.Allocs) * (1 + allocsTolerance))
			if f.Allocs > limit {
				drift = append(drift, fmt.Sprintf("%s: allocations regressed: anchor %d, fresh %d (limit %d at %+.0f%% tolerance)",
					a.Name, a.Allocs, f.Allocs, limit, allocsTolerance*100))
				allocs = fmt.Sprintf("DRIFT (%d → %d)", a.Allocs, f.Allocs)
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %.3f | %.3f | %s | %s |\n",
			a.Name, virt,
			status(a.OutcomeFNV, f.OutcomeFNV, "outcome FNV"),
			status(a.TraceFNV, f.TraceFNV, "trace FNV"),
			a.WallS, f.WallS, ratio, allocs)
	}
	for _, f := range unanchored(anchor, fresh) {
		fmt.Fprintf(&b, "| %s | UNANCHORED %v | %s | %s | — | %.3f | — | — |\n",
			f.Name, f.VirtualS, orDash(f.OutcomeFNV), orDash(f.TraceFNV), f.WallS)
	}
	if len(drift) == 0 {
		b.WriteString("\nNo drift: every anchored scenario is byte-identical (wall ratio >1 means faster than the anchor machine run; allocs ratio >1 means fewer heap allocations; allocation growth gates when both records carry counts; an UNANCHORED scenario fails the run until the anchor is re-recorded).\n")
	} else {
		fmt.Fprintf(&b, "\n**%d drift finding(s)** — the data plane changed observable output.\n", len(drift))
	}
	return drift, b.String()
}

// unanchored returns the fresh scenarios the anchor has no row for.
func unanchored(anchor, fresh benchRecord) []benchEntry {
	anchored := make(map[string]bool, len(anchor.Scenarios))
	for _, a := range anchor.Scenarios {
		anchored[a.Name] = true
	}
	var out []benchEntry
	for _, f := range fresh.Scenarios {
		if !anchored[f.Name] {
			out = append(out, f)
		}
	}
	return out
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

func main() {
	anchorPath := flag.String("anchor", "", "committed anchor record (e.g. BENCH_93ae4fd.json)")
	freshPath := flag.String("new", "", "freshly produced record to gate")
	summary := flag.String("summary", "", "also append the markdown report to this file (e.g. $GITHUB_STEP_SUMMARY)")
	allocsTolerance := flag.Float64("allocs-tolerance", 0.10, "fractional allocation growth allowed before a scenario's allocs count gates (0.10 = +10%)")
	flag.Parse()
	if *anchorPath == "" || *freshPath == "" {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -anchor BENCH_93ae4fd.json -new BENCH_<rev>.json [-summary out.md]")
		os.Exit(2)
	}
	if *allocsTolerance < 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: -allocs-tolerance must be >= 0")
		os.Exit(2)
	}
	os.Exit(run(*anchorPath, *freshPath, *summary, *allocsTolerance, os.Stdout, os.Stderr))
}

// run diffs the fresh record at freshPath against the anchor and returns
// the exit status: 0 clean, 1 drift or an unanchored scenario, 2 an I/O
// error.
func run(anchorPath, freshPath, summary string, allocsTolerance float64, stdout, stderr io.Writer) int {
	anchor, err := readRecord(anchorPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	fresh, err := readRecord(freshPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	drift, report := diffRecords(anchor, fresh, allocsTolerance)
	fmt.Fprint(stdout, report)
	if summary != "" {
		f, err := os.OpenFile(summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: summary: %v\n", err)
			return 2
		}
		if _, err := f.WriteString(report); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "benchdiff: summary: %v\n", err)
			return 2
		}
		f.Close()
	}
	status := 0
	for _, d := range drift {
		fmt.Fprintf(stderr, "benchdiff: DRIFT: %s\n", d)
		status = 1
	}
	for _, f := range unanchored(anchor, fresh) {
		fmt.Fprintf(stderr, "benchdiff: UNANCHORED: %s: the anchor has no row for it; re-record the anchor\n", f.Name)
		status = 1
	}
	return status
}
