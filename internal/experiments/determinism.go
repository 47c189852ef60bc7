package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"flint/internal/obs"
	"flint/internal/simclock"
	"flint/internal/workload"
)

// Detbench: fixed-seed determinism scenarios whose entire observable
// outcome — workload results, engine counters, metric snapshots, the
// trace event stream — must be byte-identical for any worker-pool width
// (exec.Config.Workers). CI runs it twice, with -workers 1 and
// -workers 4, and diffs the exported files; any divergence means the
// parallel execution layer leaked scheduling nondeterminism into
// virtual time.
//
// Wall-clock quantities are the one legitimate difference between runs,
// so they appear only on stdout (never in the CSV) and the Prometheus
// dump drops every flint_exec_ metric (the wall-time histograms and the
// worker-count gauge).
//
// The trace FNV is only a fingerprint of the run if the ring kept every
// event, so a scenario whose ring overflowed fails instead of hashing a
// truncated stream.

// DetbenchScenario is one scenario's diffable outcome plus its
// (non-diffable) wall time.
type DetbenchScenario struct {
	Name       string
	VirtualS   float64 // virtual makespan of the scenario's workload
	Tasks      int     // engine tasks launched
	Killed     int     // tasks killed by injected revocations
	Recomputed int64   // partition recomputations (lineage recovery)
	OutcomeFNV uint64  // FNV-64a over the canonicalized workload result
	TraceN     int     // events in the trace ring
	TraceFNV   uint64  // FNV-64a over every event field, in ring order
	WallS      float64 // real seconds (excluded from CSV)
	Allocs     uint64  // heap allocations during the run (excluded from CSV, like wall time)
	// Probes counts the scheduler's lineage-walk steps
	// (flint_exec_lineage_probes_total): control-plane work, excluded from
	// the CSV like every flint_exec_ quantity.
	Probes int64

	// MetricsText is the scenario's Prometheus dump with flint_exec_
	// lines removed — the diffable metric snapshot.
	MetricsText string
}

// DetbenchResult aggregates the scenarios for printing and CSV export.
type DetbenchResult struct {
	Workers   int // resolved pool width the run used
	Scenarios []DetbenchScenario
}

// Detbench runs the determinism scenarios and prints one row per
// scenario. The scenarios are chosen to cover the engine surfaces the
// worker pool touches: narrow pipelines, shuffles with map-side combine,
// revocation-driven recomputation, and checkpoint writes + reads.
func Detbench(w io.Writer, s Scale) (DetbenchResult, error) {
	hdr(w, "detbench", "fixed-seed determinism scenarios (diffable across -workers)")
	var res DetbenchResult
	fmt.Fprintf(w, "%-18s %12s %8s %8s %10s %18s %9s %18s %9s\n",
		"scenario", "virtual_s", "tasks", "killed", "recomputed", "outcome_fnv", "events", "trace_fnv", "wall_s")
	for _, sc := range detScenarios(s) {
		out, err := runDetScenario(sc)
		if err != nil {
			return res, fmt.Errorf("detbench %s: %w", sc.name, err)
		}
		res.Workers = out.workers
		res.Scenarios = append(res.Scenarios, out.DetbenchScenario)
		fmt.Fprintf(w, "%-18s %12.3f %8d %8d %10d %018x %9d %018x %9.3f\n",
			out.Name, out.VirtualS, out.Tasks, out.Killed, out.Recomputed,
			out.OutcomeFNV, out.TraceN, out.TraceFNV, out.WallS)
	}
	fmt.Fprintf(w, "workers: %d (wall_s and flint_exec_ metrics are excluded from the diffable exports)\n", res.Workers)
	return res, nil
}

// detScenario describes one scenario: the bed it runs on, the failures
// injected, and the workload returning a canonical outcome string.
type detScenario struct {
	name     string
	opts     bedOpts
	revokeAt float64 // virtual revocation instant (0 = none)
	revokeK  int
	run      func(b *bed, s Scale) (outcome string, virtualS float64, err error)
	scale    Scale
}

func detScenarios(s Scale) []detScenario {
	return []detScenario{
		{
			// Narrow pipeline + one shuffle with map-side combine.
			name:  "wordcount",
			scale: s,
			run: func(b *bed, s Scale) (string, float64, error) {
				counts, res, err := workload.RunWordCount(b.tb.Engine, b.ctx, workload.WordCountConfig{
					Docs: int(400 * float64(s)), Parts: 20, Seed: 17,
				})
				if err != nil {
					return "", 0, err
				}
				return canonStringIntMap(counts), res.Latency(), nil
			},
		},
		{
			// Iterative shuffles racing two replacement revocations:
			// killed tasks, fetch failures, lineage recomputation.
			name:     "pagerank-revoke",
			revokeAt: 30, revokeK: 2,
			scale: s,
			run: func(b *bed, s Scale) (string, float64, error) {
				rep, err := workload.RunPageRank(b.tb.Engine, b.ctx, prCfg(s, 2<<30))
				if err != nil {
					return "", 0, err
				}
				return canonIntFloatMap(rep.Outcome.(map[int]float64)), rep.RunningTime, nil
			},
		},
		{
			// Checkpoint manager active: checkpoint writes, store reads
			// during recovery, the τ policy's bookkeeping.
			name:     "kmeans-ckpt",
			opts:     bedOpts{mttf: simclock.Hours(2)},
			revokeAt: 400, revokeK: 2,
			scale: s,
			run: func(b *bed, s Scale) (string, float64, error) {
				rep, err := workload.RunKMeans(b.tb.Engine, b.ctx, kmCfg(s))
				if err != nil {
					return "", 0, err
				}
				out := rep.Outcome.(workload.KMeansResult)
				return fmt.Sprintf("cost=%s moved=%s", ftoa17(out.Cost), ftoa17(out.Moved)), rep.RunningTime, nil
			},
		},
		{
			// Analytics scan: table load (wide fan-out source) followed by
			// a selective aggregation down to a single float — the backend
			// row-equivalence tests lean on this scalar outcome.
			name:  "tpch-q6",
			scale: s,
			run: func(b *bed, s Scale) (string, float64, error) {
				tp := workload.BuildTPCH(b.ctx, tpchCfg(s))
				loadS, err := tp.Load(b.tb.Engine)
				if err != nil {
					return "", 0, err
				}
				rev, res, err := tp.Q6(b.tb.Engine, 600, 365, 730, 0.02, 0.06, 25)
				if err != nil {
					return "", 0, err
				}
				return "revenue=" + ftoa17(rev), loadS + res.Latency(), nil
			},
		},
	}
}

type detOutcome struct {
	DetbenchScenario
	workers int
}

func runDetScenario(sc detScenario) (detOutcome, error) {
	bundle := obs.New(obs.Options{RingCapacity: 1 << 18})
	opts := sc.opts
	opts.obs = bundle
	b := newBed(opts)
	if sc.revokeAt > 0 && sc.revokeK > 0 {
		b.tb.RevokeNodes(sc.revokeAt, sc.revokeK, true)
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	sw := obs.Stopwatch()
	outcome, virtualS, err := sc.run(b, sc.scale)
	if err != nil {
		return detOutcome{}, err
	}
	wall := sw()
	runtime.ReadMemStats(&msAfter)
	events, err := fullTrace(bundle.Tracer)
	if err != nil {
		return detOutcome{}, err
	}
	snap := b.tb.Engine.Snapshot()
	out := detOutcome{workers: b.tb.Engine.Workers()}
	out.Name = sc.name
	out.VirtualS = virtualS
	out.Tasks = snap.TasksLaunched
	out.Killed = snap.TasksKilled
	out.Recomputed = bundle.Recomputed.Value()
	out.OutcomeFNV = fnvString(outcome)
	out.TraceN = len(events)
	out.TraceFNV = fnvEvents(events)
	out.WallS = wall
	out.Allocs = msAfter.Mallocs - msBefore.Mallocs
	out.Probes = bundle.ExecLineageProbes.Value()
	text, err := filteredPrometheus(bundle)
	if err != nil {
		return detOutcome{}, err
	}
	out.MetricsText = text
	return out, nil
}

// fullTrace returns every event the run emitted, or an error if the ring
// overflowed: trace_fnv must fingerprint the whole stream, never the
// tail that survived.
func fullTrace(tr *obs.Tracer) ([]obs.Event, error) {
	if d := tr.Dropped(); d > 0 {
		return nil, fmt.Errorf("trace ring of %d events overflowed (%d dropped): trace_fnv would hash a truncated stream", tr.Cap(), d)
	}
	return tr.Events(), nil
}

// filteredPrometheus renders the bundle's registry, dropping every line
// that mentions a flint_exec_ metric (wall-clock, nondeterministic) and
// the dropped-trace-events gauge, which a scenario that got this far
// always reads as 0.
func filteredPrometheus(bundle *obs.Obs) (string, error) {
	var raw strings.Builder
	if err := bundle.Reg.WritePrometheus(&raw); err != nil {
		return "", err
	}
	var out strings.Builder
	for _, line := range strings.Split(raw.String(), "\n") {
		if strings.Contains(line, "flint_exec_") || strings.Contains(line, "flint_trace_dropped_events") {
			continue
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return strings.TrimRight(out.String(), "\n") + "\n", nil
}

//lint:sink replay fingerprint; a tainted input makes the determinism gate flap
func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// fnvEvents hashes every field of every event in ring order, so any
// reordering or value drift between worker widths changes the sum.
//
//lint:sink replay fingerprint; a tainted input makes the determinism gate flap
func fnvEvents(events []obs.Event) uint64 {
	h := fnv.New64a()
	for _, ev := range events {
		fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%s|%s\n",
			ev.Type, ftoa17(ev.Time), ftoa17(ev.Dur), ev.Job, ev.Stage, ev.Task,
			ev.Node, ev.RDD, ev.Part, ev.Bytes, ev.Bits, ftoa17(ev.Price), ev.Pool)
	}
	return h.Sum64()
}

func ftoa17(x float64) string { return strconv.FormatFloat(x, 'g', 17, 64) }

func canonStringIntMap(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, m[k])
	}
	return b.String()
}

func canonIntFloatMap(m map[int]float64) string {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%d=%s;", k, ftoa17(m[k]))
	}
	return b.String()
}

// WriteCSV exports the diffable snapshot: detbench.csv (no wall-clock
// columns) plus one filtered Prometheus dump per scenario.
func (r DetbenchResult) WriteCSV(dir string) error {
	var rows [][]string
	for _, sc := range r.Scenarios {
		rows = append(rows, []string{
			sc.Name, ftoa(sc.VirtualS), strconv.Itoa(sc.Tasks), strconv.Itoa(sc.Killed),
			strconv.FormatInt(sc.Recomputed, 10),
			fmt.Sprintf("%016x", sc.OutcomeFNV),
			strconv.Itoa(sc.TraceN),
			fmt.Sprintf("%016x", sc.TraceFNV),
		})
	}
	if err := writeCSV(dir, "detbench.csv",
		[]string{"scenario", "virtual_s", "tasks", "killed", "recomputed", "outcome_fnv", "trace_events", "trace_fnv"},
		rows); err != nil {
		return err
	}
	for _, sc := range r.Scenarios {
		path := filepath.Join(dir, fmt.Sprintf("detbench_%s_metrics.prom", sanitize(sc.Name)))
		if err := os.WriteFile(path, []byte(sc.MetricsText), 0o644); err != nil {
			return err
		}
	}
	return nil
}
