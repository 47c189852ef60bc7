package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flint/internal/experiments"
)

func TestNamesCoverAllExperiments(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "portfolio", "ablations", "detbench", "chaosbench", "serverless"}
	got := names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v", got)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	_, err := run(io.Discard, "fig99", 1, 0, 8, 16, "", experiments.ChaosbenchOpts{})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunFastExperiments(t *testing.T) {
	for _, name := range []string{"fig2", "fig4"} {
		if _, err := run(io.Discard, name, 1, 2, 6, 16, "", experiments.ChaosbenchOpts{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunWithCSVExport(t *testing.T) {
	dir := t.TempDir()
	if _, err := run(io.Discard, "fig2", 1, 2, 6, 16, dir, experiments.ChaosbenchOpts{}); err != nil {
		t.Fatal(err)
	}
}

// TestRunDetbench exercises the determinism scenarios end to end at a
// small scale: per-scenario bench entries, the diffable CSV, and the
// filtered Prometheus dumps.
func TestRunDetbench(t *testing.T) {
	dir := t.TempDir()
	entries, err := run(io.Discard, "detbench", 0.2, 0, 8, 16, dir, experiments.ChaosbenchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("detbench returned no bench entries")
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name, "detbench/") || e.VirtualS <= 0 {
			t.Fatalf("bench entry = %+v", e)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "detbench.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "wall") {
		t.Fatalf("detbench.csv must not carry wall-clock columns:\n%s", data)
	}
	proms, err := filepath.Glob(filepath.Join(dir, "detbench_*_metrics.prom"))
	if err != nil || len(proms) != len(entries) {
		t.Fatalf("prom dumps = %v (err %v), want %d", proms, err, len(entries))
	}
	for _, p := range proms {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(text), "flint_exec_") {
			t.Fatalf("%s leaks nondeterministic flint_exec_ metrics", p)
		}
	}
}

// TestRunChaosbench exercises the chaos matrix through the CLI
// dispatcher at a tiny scale: a clean cell succeeds and exports CSV.
func TestRunChaosbench(t *testing.T) {
	dir := t.TempDir()
	opts := experiments.ChaosbenchOpts{Seeds: []int64{1}, Profiles: []string{"straggler"}}
	if _, err := run(io.Discard, "chaosbench", 0.15, 0, 8, 16, dir, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "chaosbench.csv")); err != nil {
		t.Fatalf("chaosbench.csv not exported: %v", err)
	}
}

// TestWriteBench checks the BENCH_<rev>.json shape.
func TestWriteBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	rec := benchRecord{
		Rev: "abc123", Workers: 4, GoMaxProc: 8, Scale: 1,
		Scenarios: []benchEntry{{Name: "detbench/wordcount", VirtualS: 12.5, WallS: 0.03}},
	}
	if err := writeBench(path, rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchRecord
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Rev != rec.Rev || len(got.Scenarios) != 1 || got.Scenarios[0].Name != rec.Scenarios[0].Name {
		t.Fatalf("round-trip = %+v", got)
	}
}

func TestProfilingWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := startProfiling(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(io.Discard, "fig2", 1, 2, 6, 16, "", experiments.ChaosbenchOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: profile missing or empty (%v)", p, err)
		}
	}
}
