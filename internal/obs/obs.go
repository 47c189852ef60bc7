// Package obs is Flint's observability substrate: structured event
// tracing and a metrics registry, threaded through the execution engine,
// the fault-tolerance manager, the node manager and the market.
//
// The paper's claims are temporal — the checkpoint interval τ=√(2δ·MTTF),
// the recomputation-versus-checkpoint tradeoff, revocation recovery time —
// so the subsystem records *when* things happen against the simulation
// clock, not wall time. It has three parts:
//
//   - Tracer: typed Event records (job/stage/task lifecycle, checkpoint
//     begin/end, block evictions, node up/warning/revocation, market price
//     observations) in a bounded ring buffer. Disabled or nil tracers
//     cost zero allocations per emit, so instrumentation never comes out.
//   - Registry: named Counters, Gauges, GaugeFuncs and Histograms
//     (task/checkpoint/job durations, checkpoint bytes, revocation
//     recovery time, ...), exported in Prometheus text format.
//   - Exporters: WriteChromeTrace renders the event ring as Chrome
//     trace_event JSON loadable in chrome://tracing or Perfetto;
//     Registry.WritePrometheus renders the text exposition format.
//
// An Obs value bundles one tracer, one registry and the standard Flint
// instruments. Deployments built by internal/core get a fresh enabled Obs
// unless one is injected via the Spec or installed process-wide with
// SetDefault (which cmd/flintbench uses so one --trace-out file spans
// every deployment an experiment creates). See docs/OBSERVABILITY.md for
// the full surface.
package obs

import "sync/atomic"

// DefaultRingCapacity is the event-ring size used when Options leaves it
// zero: large enough for a full systems experiment, ~3 MB resident.
const DefaultRingCapacity = 32768

// Options configures New.
type Options struct {
	// Disabled starts the tracer off; metrics still register and count.
	Disabled bool
	// RingCapacity bounds the event ring (0 = DefaultRingCapacity).
	RingCapacity int
}

// Obs bundles a tracer, a registry, and the standard Flint instruments,
// pre-registered so instrumented packages share one set of names (the
// names are documented in docs/OBSERVABILITY.md).
type Obs struct {
	Tracer *Tracer
	Reg    *Registry

	// Engine counters.
	TasksLaunched   *Counter
	TasksKilled     *Counter
	CheckpointTasks *Counter
	CheckpointBytes *Counter
	SystemCkptTasks *Counter
	Revocations     *Counter
	NodesJoined     *Counter
	Recomputed      *Counter
	CacheHits       *Counter
	CacheMisses     *Counter
	EvictToDisk     *Counter
	EvictDropped    *Counter
	ShuffleRemote   *Counter
	ShuffleLocal    *Counter

	// Fault-tolerance manager counters.
	CkptMarks     *Counter
	CkptGCRemoved *Counter

	// Cluster and market counters.
	NodeWarnings *Counter
	Replacements *Counter
	Acquisitions *Counter

	// Chaos-injection counters (internal/chaos). Zero unless a fault
	// injector is installed; the instruments always exist so the hooks
	// stay nil-safe.
	ChaosCkptWriteFailures *Counter
	ChaosFetchFailures     *Counter
	ChaosSlowdowns         *Counter
	ChaosDFSReadFaults     *Counter
	ChaosRevocations       *Counter
	ChaosColdStragglers    *Counter

	// Serverless (function-backend) instruments. Zero on the VM backend;
	// see docs/SERVERLESS.md for the slot and billing model.
	FnInvocations    *Counter
	FnColdStarts     *Counter
	FnInvokeFailures *Counter
	FnExtReadBytes   *Counter
	FnExtWriteBytes  *Counter

	// Retry/backoff counters for the graceful-degradation paths.
	RetryAttempts  *Counter
	RetryExhausted *Counter

	// Portfolio-selector instruments (internal/policy). The counter
	// tracks weight recomputations that moved the allocation beyond the
	// drift threshold; the gauges snapshot the last solve.
	PortfolioRebalances *Counter

	// Gauges.
	LiveNodes   *Gauge
	ExecWorkers *Gauge

	// Serverless billing gauges: running totals of the function
	// backend's accrued spend and metered GB-seconds.
	FnBilledDollars   *Gauge
	FnBilledGBSeconds *Gauge

	// Portfolio gauges: markets held with non-zero target weight, the
	// mean-variance objective terms of the last solve (expected savings
	// fraction vs. on-demand and revocation-risk wᵀΣw in events²/hour),
	// and the L1 weight drift observed at the last rebalance check.
	PortfolioMarketsHeld     *Gauge
	PortfolioExpectedSavings *Gauge
	PortfolioRisk            *Gauge
	PortfolioDrift           *Gauge

	// Histograms.
	TaskDur        *Histogram
	CkptDur        *Histogram
	JobDur         *Histogram
	RecoveryTime   *Histogram
	CkptWriteBytes *Histogram
	RetryBackoff   *Histogram
	FnColdStartDur *Histogram

	// Wall-clock (real time, not virtual) execution histograms. These
	// measure how fast the engine itself runs, vary run to run, and are
	// deliberately excluded from the determinism contract — diffable
	// snapshots filter the flint_exec_ prefix.
	ExecRoundWall *Histogram
	WorkerBusy    *Histogram

	// ExecLineageProbes counts the scheduler's lineage-walk steps: the
	// control plane's work, which depends on how the scheduler is
	// implemented rather than on what it decides.
	ExecLineageProbes *Counter
}

// New builds an Obs with the standard instrument set registered.
func New(o Options) *Obs {
	t := NewTracer(o.RingCapacity)
	if o.Disabled {
		t.SetEnabled(false)
	}
	r := NewRegistry()
	r.GaugeFunc("flint_trace_dropped_events", "Trace events overwritten by ring wraparound (lost from the Chrome trace).", nil,
		func() float64 { return float64(t.Dropped()) })
	return &Obs{
		Tracer: t,
		Reg:    r,

		TasksLaunched:   r.Counter("flint_tasks_launched_total", "Tasks launched onto slots (compute + checkpoint + system)."),
		TasksKilled:     r.Counter("flint_tasks_killed_total", "Tasks killed by server revocations."),
		CheckpointTasks: r.Counter("flint_checkpoint_tasks_total", "Partition checkpoint writes completed."),
		CheckpointBytes: r.Counter("flint_checkpoint_bytes_total", "Bytes written to the checkpoint store."),
		SystemCkptTasks: r.Counter("flint_system_checkpoint_tasks_total", "Full-node system-level checkpoint writes (baseline)."),
		Revocations:     r.Counter("flint_revocations_total", "Server revocations observed by the engine."),
		NodesJoined:     r.Counter("flint_nodes_joined_total", "Servers that became usable (initial + replacements)."),
		Recomputed:      r.Counter("flint_recomputed_partitions_total", "Partition computations beyond the first (lineage recovery work)."),
		CacheHits:       r.Counter("flint_cache_hits_total", "Partition reads served from a node's block cache."),
		CacheMisses:     r.Counter("flint_cache_misses_total", "Partition reads that had to recompute or fetch."),
		EvictToDisk:     r.Counter("flint_cache_evictions_to_disk_total", "Blocks demoted from the memory tier to local disk."),
		EvictDropped:    r.Counter("flint_cache_evictions_dropped_total", "Blocks dropped entirely from the cache."),
		ShuffleRemote:   r.Counter("flint_shuffle_remote_bytes_total", "Shuffle bytes fetched across nodes."),
		ShuffleLocal:    r.Counter("flint_shuffle_local_bytes_total", "Shuffle bytes read node-locally."),

		CkptMarks:     r.Counter("flint_checkpoint_marks_total", "RDDs marked for checkpointing by the τ policy."),
		CkptGCRemoved: r.Counter("flint_checkpoint_gc_removed_total", "Checkpointed RDDs deleted by garbage collection."),

		NodeWarnings: r.Counter("flint_node_warnings_total", "Advance revocation warnings delivered."),
		Replacements: r.Counter("flint_replacements_total", "Replacement servers ordered after revocations."),
		Acquisitions: r.Counter("flint_market_acquisitions_total", "Leases acquired from the market exchange."),

		ChaosCkptWriteFailures: r.Counter("flint_chaos_ckpt_write_failures_total", "Checkpoint writes failed by the fault injector."),
		ChaosFetchFailures:     r.Counter("flint_chaos_fetch_failures_total", "Shuffle fetch attempts failed by the fault injector."),
		ChaosSlowdowns:         r.Counter("flint_chaos_straggler_slowdowns_total", "Tasks slowed by an injected straggler window."),
		ChaosDFSReadFaults:     r.Counter("flint_chaos_dfs_read_faults_total", "Checkpoint-store read probes that observed an injected fault."),
		ChaosRevocations:       r.Counter("flint_chaos_injected_revocations_total", "Revocations injected by a chaos schedule."),
		ChaosColdStragglers:    r.Counter("flint_chaos_cold_start_stragglers_total", "Cold starts stretched by an injected cold-start straggler window."),

		FnInvocations:    r.Counter("flint_serverless_invocations_total", "Function invocations launched (one per task in fn mode)."),
		FnColdStarts:     r.Counter("flint_serverless_cold_starts_total", "Invocations that found no warm slot and paid the cold-start delay."),
		FnInvokeFailures: r.Counter("flint_serverless_invoke_failures_total", "Injected invocation admission failures retried through."),
		FnExtReadBytes:   r.Counter("flint_serverless_external_read_bytes_total", "Externalized-state bytes read from the dfs store (shuffle segments + cached partitions)."),
		FnExtWriteBytes:  r.Counter("flint_serverless_external_write_bytes_total", "Externalized-state bytes written to the dfs store."),

		RetryAttempts:  r.Counter("flint_retry_attempts_total", "Bounded-retry attempts after injected write/fetch failures."),
		RetryExhausted: r.Counter("flint_retry_exhausted_total", "Retry sequences that hit MaxAttempts and fell back."),

		PortfolioRebalances: r.Counter("flint_portfolio_rebalances_total", "Portfolio weight recomputations that moved the allocation beyond the drift threshold."),

		LiveNodes:   r.Gauge("flint_live_nodes", "Servers currently registered with the engine."),
		ExecWorkers: r.Gauge("flint_exec_workers", "Resolved worker-pool width of the execution engine."),

		FnBilledDollars:   r.Gauge("flint_serverless_billed_dollars", "Dollars accrued by the function backend (per-invocation fees + GB-seconds)."),
		FnBilledGBSeconds: r.Gauge("flint_serverless_billed_gb_seconds", "GB-seconds metered by the function backend."),

		PortfolioMarketsHeld:     r.Gauge("flint_portfolio_markets_held", "Markets with non-zero target weight after the last portfolio solve."),
		PortfolioExpectedSavings: r.Gauge("flint_portfolio_expected_savings", "Expected savings fraction vs. on-demand of the last portfolio solve."),
		PortfolioRisk:            r.Gauge("flint_portfolio_risk", "Revocation-risk term w'Σw of the last portfolio solve, events²/hour."),
		PortfolioDrift:           r.Gauge("flint_portfolio_weight_drift", "L1 target-weight drift observed at the last rebalance check."),

		TaskDur:        r.Histogram("flint_task_duration_seconds", "Compute task slot time, virtual seconds.", DurationBuckets()),
		CkptDur:        r.Histogram("flint_checkpoint_duration_seconds", "Partition checkpoint write time, virtual seconds.", DurationBuckets()),
		JobDur:         r.Histogram("flint_job_duration_seconds", "Job response time, virtual seconds.", DurationBuckets()),
		RecoveryTime:   r.Histogram("flint_revocation_recovery_seconds", "Time from a revocation to the next replacement joining.", DurationBuckets()),
		CkptWriteBytes: r.Histogram("flint_checkpoint_write_bytes", "Per-partition checkpoint write sizes.", ByteBuckets()),
		RetryBackoff:   r.Histogram("flint_retry_backoff_seconds", "Virtual backoff waits charged before retries.", DurationBuckets()),
		FnColdStartDur: r.Histogram("flint_serverless_cold_start_seconds", "Cold-start delays charged to invocations, virtual seconds.", DurationBuckets()),

		ExecRoundWall: r.Histogram("flint_exec_wall_seconds", "Real seconds per dispatch round's task batch (wall clock, nondeterministic).", DurationBuckets()),
		WorkerBusy:    r.Histogram("flint_exec_worker_busy_seconds", "Real seconds one task's computation occupied a worker (wall clock, nondeterministic).", DurationBuckets()),

		ExecLineageProbes: r.Counter("flint_exec_lineage_probes_total", "Lineage-walk steps the scheduler's control plane took to find runnable partitions."),
	}
}

// Emit records ev on the bundle's tracer. Nil-safe.
func (o *Obs) Emit(ev Event) {
	if o == nil {
		return
	}
	o.Tracer.Emit(ev)
}

// nop is the shared no-op bundle: instruments exist (so field access on
// the bundle never panics) but the tracer is disabled and nothing reads
// the registry.
var nop = New(Options{Disabled: true, RingCapacity: 1})

// Nop returns a shared disabled Obs. Instrument updates on it are cheap
// atomic writes that nobody observes.
func Nop() *Obs { return nop }

var defaultObs atomic.Pointer[Obs]

// SetDefault installs a process-wide Obs picked up by engines and
// deployments that were not given one explicitly. Passing nil clears it.
func SetDefault(o *Obs) { defaultObs.Store(o) }

// Default returns the process-wide Obs installed by SetDefault, or nil.
func Default() *Obs { return defaultObs.Load() }

// Active returns the process-wide default if installed, else the shared
// no-op bundle — never nil.
func Active() *Obs {
	if o := Default(); o != nil {
		return o
	}
	return nop
}
