// Command flintbench regenerates the tables and figures of the Flint
// paper's evaluation (EuroSys 2016, §5) on the simulated substrates.
//
// Usage:
//
//	flintbench [flags] <experiment> [<experiment>...]
//	flintbench all
//
// Experiments: fig2 fig3 fig4 fig6 fig7 fig8 fig9 fig10 fig11 portfolio
// ablations detbench chaosbench serverless
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-versus-measured record. detbench runs the
// fixed-seed determinism scenarios whose -csv exports must be identical
// for any -workers value (CI diffs them). chaosbench replays seeded
// fault schedules (see docs/CHAOS.md) and exits non-zero if any
// cross-layer invariant is violated, dumping replayable schedules via
// -chaos-out. serverless sweeps the execution backends over the
// workload × revocation-intensity grid and exports the cost/latency
// frontier (see docs/SERVERLESS.md). -backend=fn reruns any experiment
// on the function-slot backend; workload outcomes must not change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"flint/internal/exec"
	"flint/internal/experiments"
	"flint/internal/obs"
	"flint/internal/serverless"
)

// benchEntry is one line of the machine-readable benchmark record
// (-bench-out): a scenario's virtual makespan, real runtime and — for
// detbench scenarios — the determinism fingerprints (outcome and trace
// FNV-64a) that cmd/benchdiff gates against the committed anchor.
type benchEntry struct {
	Name        string  `json:"name"`
	VirtualS    float64 `json:"virtual_s,omitempty"`
	WallS       float64 `json:"wall_s"`
	OutcomeFNV  string  `json:"outcome_fnv,omitempty"`
	TraceFNV    string  `json:"trace_fnv,omitempty"`
	TraceEvents int     `json:"trace_events,omitempty"`
	Allocs      uint64  `json:"allocs,omitempty"` // heap allocations during the run (benchdiff gates growth when both records carry counts)
}

// benchRecord is the BENCH_<rev>.json payload CI uploads as an artifact,
// seeding the perf trajectory across revisions.
type benchRecord struct {
	Rev       string       `json:"rev,omitempty"`
	Workers   int          `json:"workers"`
	GoMaxProc int          `json:"gomaxprocs"`
	Scale     float64      `json:"scale"`
	Backend   string       `json:"backend,omitempty"`
	Scenarios []benchEntry `json:"scenarios"`
}

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor for the systems experiments")
	runs := flag.Int("runs", 0, "Monte Carlo runs for the long-horizon studies (0 = default)")
	markets := flag.Int("markets", 16, "market count for the correlation study")
	portfolioMarkets := flag.Int("portfolio-markets", 120, "generated market-universe size for the portfolio policy sweep")
	csvDir := flag.String("csv", "", "also write each figure's series as CSV files into this directory")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file covering the selected experiments to this path")
	workers := flag.Int("workers", 0, "engine worker-pool width for task execution (0 = GOMAXPROCS; 1 = serial); any value produces identical results")
	chaosSeeds := flag.Int("chaos-seeds", 25, "chaosbench: seeds per profile (1..n)")
	chaosSeed := flag.Int64("chaos-seed", 0, "chaosbench: run only this single seed (overrides -chaos-seeds; use to replay an artifact)")
	chaosProfile := flag.String("chaos-profile", "", "chaosbench: run only this fault profile (default: all)")
	chaosOut := flag.String("chaos-out", "", "chaosbench: dump violating schedules as replayable JSON artifacts into this directory")
	benchOut := flag.String("bench-out", "", "write a machine-readable benchmark record (scenario -> virtual makespan + wall seconds) to this JSON file")
	rev := flag.String("rev", "", "revision identifier recorded in the -bench-out file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile (allocations included) to this file after the selected experiments")
	backend := flag.String("backend", "vm", "execution backend: vm (spot servers, local state) or fn (function slots, externalized state); workload outcomes are identical either way")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: flintbench [flags] <experiment>...\nexperiments: %v\n", names())
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = names()
	}
	exec.SetDefaultWorkers(*workers)
	switch *backend {
	case "vm":
		// Default: the engine's built-in VM backend.
	case "fn":
		experiments.SetBackendFactory(func() exec.Backend {
			return serverless.New(serverless.Config{})
		})
	default:
		fmt.Fprintf(os.Stderr, "flintbench: unknown -backend %q (want vm or fn)\n", *backend)
		os.Exit(2)
	}
	var bundle *obs.Obs
	if *traceOut != "" {
		// Experiments assemble their own deployments internally, so the
		// bundle is installed as the process default, which every engine,
		// cluster manager and exchange picks up at construction.
		bundle = obs.New(obs.Options{RingCapacity: 1 << 18})
		obs.SetDefault(bundle)
	}
	s := experiments.Scale(*scale)
	chaosOpts := experiments.ChaosbenchOpts{
		Seeds:       experiments.DefaultChaosSeeds(*chaosSeeds),
		ArtifactDir: *chaosOut,
	}
	if *chaosSeed != 0 {
		chaosOpts.Seeds = []int64{*chaosSeed}
	}
	if *chaosProfile != "" {
		chaosOpts.Profiles = []string{*chaosProfile}
	}
	record := benchRecord{
		Rev: *rev, Workers: *workers, GoMaxProc: runtime.GOMAXPROCS(0), Scale: *scale,
		Backend: *backend,
	}
	stopProfiling, err := startProfiling(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flintbench: profile: %v\n", err)
		os.Exit(1)
	}
	for _, name := range args {
		sw := obs.Stopwatch()
		entries, err := run(os.Stdout, name, s, *runs, *markets, *portfolioMarkets, *csvDir, chaosOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flintbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		wallS := sw()
		// Experiments that don't report per-scenario entries get one
		// entry covering the whole run.
		if len(entries) == 0 {
			entries = []benchEntry{{Name: name, WallS: wallS}}
		}
		record.Scenarios = append(record.Scenarios, entries...)
		fmt.Printf("[%s completed in %.3fs]\n\n", name, wallS)
	}
	if err := stopProfiling(); err != nil {
		fmt.Fprintf(os.Stderr, "flintbench: profile: %v\n", err)
		os.Exit(1)
	}
	if bundle != nil {
		if err := writeTrace(*traceOut, bundle); err != nil {
			fmt.Fprintf(os.Stderr, "flintbench: trace: %v\n", err)
			os.Exit(1)
		}
	}
	if *benchOut != "" {
		if err := writeBench(*benchOut, record); err != nil {
			fmt.Fprintf(os.Stderr, "flintbench: bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// startProfiling starts a CPU profile into cpuPath (when set) and
// returns the function that stops it and writes a heap profile into
// memPath (when set).
func startProfiling(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // up-to-date live-heap statistics
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// writeBench dumps the benchmark record as indented JSON.
func writeBench(path string, rec benchRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("bench: %d scenarios written to %s\n", len(rec.Scenarios), path)
	return nil
}

// writeTrace dumps the bundle's event buffer as Chrome trace_event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func writeTrace(path string, o *obs.Obs) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, o.Tracer.Events()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if d := o.Tracer.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "flintbench: trace ring buffer overflowed; oldest %d events dropped\n", d)
	}
	fmt.Printf("trace: %d events written to %s\n", o.Tracer.Len(), path)
	return nil
}

func names() []string {
	return []string{"fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "portfolio", "ablations", "detbench", "chaosbench", "serverless"}
}

// csvWriter is satisfied by every FigNResult.
type csvWriter interface {
	WriteCSV(dir string) error
}

func export(csvDir string, res csvWriter, err error) error {
	if err != nil || csvDir == "" {
		return err
	}
	return res.WriteCSV(csvDir)
}

// run executes one experiment. A non-nil entries slice carries
// per-scenario benchmark lines for -bench-out; experiments without
// internal scenarios return nil and the caller records their wall time.
func run(w io.Writer, name string, s experiments.Scale, runs, markets, portfolioMarkets int, csvDir string, chaosOpts experiments.ChaosbenchOpts) ([]benchEntry, error) {
	switch name {
	case "fig2":
		res, err := experiments.Fig2(w)
		return nil, export(csvDir, res, err)
	case "fig3":
		res, err := experiments.Fig3(w, s)
		return nil, export(csvDir, res, err)
	case "fig4":
		res, err := experiments.Fig4(w, markets)
		return nil, export(csvDir, res, err)
	case "fig6":
		res, err := experiments.Fig6(w, s)
		return nil, export(csvDir, res, err)
	case "fig7":
		res, err := experiments.Fig7(w, s)
		return nil, export(csvDir, res, err)
	case "fig8":
		res, err := experiments.Fig8(w, s)
		return nil, export(csvDir, res, err)
	case "fig9":
		res, err := experiments.Fig9(w, s)
		return nil, export(csvDir, res, err)
	case "fig10":
		res, err := experiments.Fig10(w, runs)
		return nil, export(csvDir, res, err)
	case "fig11":
		res, err := experiments.Fig11(w, runs)
		return nil, export(csvDir, res, err)
	case "portfolio":
		res, err := experiments.PortfolioSweep(w, portfolioMarkets, runs)
		return nil, export(csvDir, res, err)
	case "ablations":
		if _, err := experiments.AblationFrontier(w, s); err != nil {
			return nil, err
		}
		if _, err := experiments.AblationShuffle(w, s); err != nil {
			return nil, err
		}
		experiments.AblationDiversification(w)
		experiments.StorageOverhead(w)
		return nil, nil
	case "detbench":
		res, err := experiments.Detbench(w, s)
		if err != nil {
			return nil, err
		}
		entries := make([]benchEntry, 0, len(res.Scenarios))
		for _, sc := range res.Scenarios {
			entries = append(entries, benchEntry{
				Name: "detbench/" + sc.Name, VirtualS: sc.VirtualS, WallS: sc.WallS,
				OutcomeFNV:  fmt.Sprintf("%016x", sc.OutcomeFNV),
				TraceFNV:    fmt.Sprintf("%016x", sc.TraceFNV),
				TraceEvents: sc.TraceN,
				Allocs:      sc.Allocs,
			})
		}
		return entries, export(csvDir, res, nil)
	case "chaosbench":
		res, err := experiments.Chaosbench(w, s, chaosOpts)
		if err != nil {
			return nil, err
		}
		if err := export(csvDir, res, nil); err != nil {
			return nil, err
		}
		// A violated invariant is a failed run: CI gates on the exit code
		// and uploads the dumped schedules as repro artifacts.
		if n := res.Violations(); n > 0 {
			return nil, fmt.Errorf("%d of %d runs violated invariants (replayable schedules in %q)",
				n, len(res.Runs), chaosOpts.ArtifactDir)
		}
		return nil, nil
	case "serverless":
		res, err := experiments.Serverless(w, s)
		return nil, export(csvDir, res, err)
	}
	return nil, fmt.Errorf("unknown experiment %q (want one of %v)", name, names())
}
