package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"flint/internal/chaos"
	"flint/internal/obs"
	"flint/internal/serverless"
	"flint/internal/workload"
)

// Chaosbench: the acceptance harness for the deterministic chaos
// subsystem (internal/chaos, docs/CHAOS.md). One fault-free baseline run
// fixes the expected outcome hashes and the fault horizon; then every
// (profile, seed) pair replays the same workloads under a generated
// fault schedule and audits the survivors with the cross-layer invariant
// checkers. Faults may change makespan and cost — never results — so a
// clean matrix prints every row as "ok"; a violating run dumps its
// schedule as a replayable JSON artifact.

// ChaosRun is one (profile, seed) cell of the matrix.
type ChaosRun struct {
	Profile      string
	Seed         int64
	MakespanS    float64 // virtual seconds; baseline horizon when fault-free
	Revocations  int64   // servers killed by the schedule
	CkptFails    int64   // injected checkpoint-write failures
	FetchFails   int64   // injected shuffle-fetch failures
	Slowdowns    int64   // tasks slowed by straggler windows
	DFSFaults    int64   // checkpoint-store read probes that hit a window
	Retries      int64   // bounded-retry attempts
	Exhausted    int64   // retry sequences that fell back
	Violations   []chaos.Violation
	ArtifactPath string // non-empty when violations were dumped
}

// ChaosbenchResult aggregates the matrix for printing and CSV export.
type ChaosbenchResult struct {
	BaselineFNV map[string]uint64
	HorizonS    float64
	Runs        []ChaosRun
}

// Violations counts the violating runs.
func (r ChaosbenchResult) Violations() int {
	n := 0
	for _, run := range r.Runs {
		if len(run.Violations) > 0 {
			n++
		}
	}
	return n
}

// ChaosbenchOpts parameterizes the matrix. Zero values take defaults:
// seeds 1..25, every profile, no artifact directory (violations are
// reported but not dumped).
type ChaosbenchOpts struct {
	Seeds       []int64
	Profiles    []string
	ArtifactDir string
}

// DefaultChaosSeeds returns seeds 1..n.
func DefaultChaosSeeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// chaosBedOpts builds the bed every chaosbench run uses: small per-node
// RDD memory keeps the checkpoint-time estimate δ low, and a short MTTF
// pulls τ=√(2δ·MTTF) well under the workload makespan, so the checkpoint
// manager is genuinely exercised by the write-failure profiles.
func chaosBedOpts(bundle *obs.Obs) bedOpts {
	return bedOpts{mem: 32 << 20, mttf: 1800, obs: bundle}
}

// runChaosWorkloads runs the canonical chaos workloads — a word count
// (narrow pipeline + combine shuffle) then a small PageRank (iterative
// shuffles with a cached link table) — and returns the outcome hashes.
func runChaosWorkloads(b *bed, s Scale) (map[string]uint64, error) {
	out := make(map[string]uint64, 2)
	counts, _, err := workload.RunWordCount(b.tb.Engine, b.ctx, workload.WordCountConfig{
		Docs: int(300 * float64(s)), Parts: 16, Seed: 23,
	})
	if err != nil {
		return nil, fmt.Errorf("wordcount: %w", err)
	}
	out["wordcount"] = fnvString(canonStringIntMap(counts))
	rep, err := workload.RunPageRank(b.tb.Engine, b.ctx, workload.PageRankConfig{
		Vertices: int(1200 * float64(s)), AvgDegree: 8, Parts: 16,
		Iterations: 8, TargetBytes: 512 << 20, Weight: 2.2, Seed: 42,
	})
	if err != nil {
		return nil, fmt.Errorf("pagerank: %w", err)
	}
	out["pagerank"] = fnvString(canonIntFloatMap(rep.Outcome.(map[int]float64)))
	return out, nil
}

// Chaosbench runs the matrix and prints one row per (profile, seed).
func Chaosbench(w io.Writer, s Scale, o ChaosbenchOpts) (ChaosbenchResult, error) {
	if len(o.Seeds) == 0 {
		o.Seeds = DefaultChaosSeeds(25)
	}
	if len(o.Profiles) == 0 {
		o.Profiles = chaos.Profiles()
	}
	hdr(w, "chaosbench", "seeded fault injection with cross-layer invariant checking")

	// Fault-free baseline: fixes outcome hashes and the fault horizon.
	base := obs.New(obs.Options{Disabled: true, RingCapacity: 1})
	bb := newBed(chaosBedOpts(base))
	baseline, err := runChaosWorkloads(bb, s)
	if err != nil {
		return ChaosbenchResult{}, fmt.Errorf("chaosbench baseline: %w", err)
	}
	res := ChaosbenchResult{BaselineFNV: baseline, HorizonS: bb.tb.Clock.Now()}
	fmt.Fprintf(w, "baseline: horizon=%.1fs wordcount=%016x pagerank=%016x\n",
		res.HorizonS, baseline["wordcount"], baseline["pagerank"])
	fmt.Fprintf(w, "%-18s %6s %10s %7s %10s %11s %10s %10s %8s %10s %s\n",
		"profile", "seed", "makespan_s", "revoked", "ckpt_fail", "fetch_fail", "slowdowns", "dfs_fault", "retries", "exhausted", "verdict")

	for _, profile := range o.Profiles {
		for _, seed := range o.Seeds {
			run, err := runChaosScenario(profile, seed, s, res, o.ArtifactDir)
			if err != nil {
				return res, fmt.Errorf("chaosbench %s seed %d: %w", profile, seed, err)
			}
			res.Runs = append(res.Runs, run)
			verdict := "ok"
			if n := len(run.Violations); n > 0 {
				verdict = fmt.Sprintf("VIOLATED (%d: %s)", n, run.Violations[0].Invariant)
				if run.ArtifactPath != "" {
					verdict += " -> " + run.ArtifactPath
				}
			}
			fmt.Fprintf(w, "%-18s %6d %10.1f %7d %10d %11d %10d %10d %8d %10d %s\n",
				run.Profile, run.Seed, run.MakespanS, run.Revocations, run.CkptFails,
				run.FetchFails, run.Slowdowns, run.DFSFaults, run.Retries, run.Exhausted, verdict)
		}
	}
	fmt.Fprintf(w, "runs: %d, violations: %d\n", len(res.Runs), res.Violations())
	return res, nil
}

// runChaosScenario runs one chaotic cell against the baseline. The
// serverless profile runs on a function-backend bed — its invoke and
// cold-start faults are inert on the VM backend — and its outcomes must
// still hash identical to the VM baseline.
func runChaosScenario(profile string, seed int64, s Scale, base ChaosbenchResult, artifactDir string) (ChaosRun, error) {
	bundle := obs.New(obs.Options{Disabled: true, RingCapacity: 1})
	opts := chaosBedOpts(bundle)
	var fnb *serverless.Backend
	if profile == chaos.ProfileServerless {
		fnb = serverless.New(serverless.Config{})
		opts.backend = fnb
	}
	b := newBed(opts)

	sched, err := chaos.NewSchedule(seed, profile, base.HorizonS, b.tb.Cluster.Config().Size)
	if err != nil {
		return ChaosRun{}, err
	}
	inj := chaos.NewInjector(b.tb.Clock, sched, bundle)
	b.tb.Engine.SetFaultInjector(inj)
	inj.BindStore(b.tb.Store)
	inj.Arm(b.tb.Cluster)
	replaceFailures := 0
	b.tb.Cluster.SetOnReplaceFailed(func(pool string, err error) { replaceFailures++ })

	// Cumulative-cost samples for the monotonicity invariant, spread past
	// the horizon since faults stretch the makespan. Samples after the
	// last job complete never fire; the prefix that did is checked.
	// The same instants audit the engine mid-run, while jobs are active
	// and the scheduler's location index and walk memo are populated.
	var samples []float64
	var midAudit error
	for i := 1; i <= 16; i++ {
		b.tb.Clock.Schedule(base.HorizonS*1.5*float64(i)/16, func() {
			now := b.tb.Clock.Now()
			samples = append(samples, b.tb.Cluster.Cost()+b.tb.Store.UsageAt(now).StorageCost)
			if err := b.tb.Engine.Audit(); err != nil && midAudit == nil {
				midAudit = fmt.Errorf("mid-run audit at t=%.3f: %w", now, err)
			}
		})
	}

	got, err := runChaosWorkloads(b, s)
	if err != nil {
		return ChaosRun{}, err
	}

	// Close every fault window before auditing: an audit inside an open
	// dfs-read window would see injected absence as real inconsistency.
	inj.Disable()
	viols := chaos.Check(chaos.CheckInput{
		BaselineFNV: base.BaselineFNV,
		ChaosFNV:    got,
		Store:       b.tb.Store,
		Ckpt:        b.ftm,
		Engine:      b.tb.Engine,
		CostSamples: samples,
	})
	if midAudit != nil {
		viols = append(viols, chaos.Violation{Invariant: chaos.InvAccounting, Detail: midAudit.Error()})
		sort.SliceStable(viols, func(i, j int) bool { return viols[i].Invariant < viols[j].Invariant })
	}
	if fnb != nil {
		// Externalized-state consistency: the concurrent audit of the fn
		// backend's shuffle segments and externalized cache must agree
		// with the sequential one — same objects, same bytes, same digest.
		for _, prefix := range []string{"fnshuffle/", "fncache/"} {
			seq, err := serverless.AuditExternal(b.tb.Store, prefix, 1)
			if err != nil {
				return ChaosRun{}, fmt.Errorf("external audit %s: %w", prefix, err)
			}
			par, err := serverless.AuditExternal(b.tb.Store, prefix, 8)
			if err != nil {
				return ChaosRun{}, fmt.Errorf("external audit %s: %w", prefix, err)
			}
			if seq != par {
				viols = append(viols, chaos.Violation{
					Invariant: "external-state-audit",
					Detail:    fmt.Sprintf("%s: sequential %+v != concurrent %+v", prefix, seq, par),
				})
			}
		}
	}
	run := ChaosRun{
		Profile:     profile,
		Seed:        seed,
		MakespanS:   b.tb.Clock.Now(),
		Revocations: bundle.ChaosRevocations.Value(),
		CkptFails:   bundle.ChaosCkptWriteFailures.Value(),
		FetchFails:  bundle.ChaosFetchFailures.Value(),
		Slowdowns:   bundle.ChaosSlowdowns.Value(),
		DFSFaults:   bundle.ChaosDFSReadFaults.Value(),
		Retries:     bundle.RetryAttempts.Value(),
		Exhausted:   bundle.RetryExhausted.Value(),
		Violations:  viols,
	}
	if len(viols) > 0 && artifactDir != "" {
		path, err := chaos.WriteArtifact(artifactDir, sched, viols)
		if err != nil {
			return run, fmt.Errorf("write artifact: %w", err)
		}
		run.ArtifactPath = path
	}
	return run, nil
}

// WriteCSV exports chaosbench.csv.
func (r ChaosbenchResult) WriteCSV(dir string) error {
	var rows [][]string
	for _, run := range r.Runs {
		firstViol := ""
		if len(run.Violations) > 0 {
			firstViol = run.Violations[0].String()
		}
		rows = append(rows, []string{
			run.Profile, strconv.FormatInt(run.Seed, 10), ftoa(run.MakespanS),
			strconv.FormatInt(run.Revocations, 10), strconv.FormatInt(run.CkptFails, 10),
			strconv.FormatInt(run.FetchFails, 10), strconv.FormatInt(run.Slowdowns, 10),
			strconv.FormatInt(run.DFSFaults, 10), strconv.FormatInt(run.Retries, 10),
			strconv.FormatInt(run.Exhausted, 10),
			strconv.Itoa(len(run.Violations)), firstViol,
		})
	}
	return writeCSV(dir, "chaosbench.csv",
		[]string{"profile", "seed", "makespan_s", "revoked", "ckpt_fail", "fetch_fail",
			"slowdowns", "dfs_fault", "retries", "exhausted", "violations", "first_violation"},
		rows)
}
