// Package exec is the execution engine: a discrete-event simulator that
// schedules RDD computations as stages and tasks over a cluster of
// transient servers.
//
// Semantics follow Spark's DAG scheduler: a job is an action on a target
// RDD; the lineage graph is cut into stages at shuffle dependencies;
// narrow chains are pipelined inside a single task; lost partitions are
// recomputed from the youngest available ancestor — a live cache entry, a
// checkpoint in the DFS, or in the worst case the source data (paper
// Figure 1). Server revocations destroy the node's cached partitions and
// shuffle outputs; the scheduler detects the loss (directly or via fetch
// failures) and transparently recomputes.
//
// Tasks execute their user code for real, but their *durations* are
// virtual, charged by a CostModel from the bytes they process and move
// (see DESIGN.md: the virtual-time substitution). Checkpoint writes are
// tasks too — they occupy a slot on the node that computed the partition,
// which is exactly how Flint's "checkpointing tax" arises.
//
// Every scheduler transition (job/stage/task lifecycle, checkpoint
// begin/end, cache evictions, node arrivals and revocations) is reported
// to an internal/obs bundle — see docs/OBSERVABILITY.md — and aggregate
// counters are available race-free through Snapshot.
package exec

import (
	"fmt"
	"strconv"

	"flint/internal/cluster"
	"flint/internal/dfs"
	"flint/internal/obs"
	"flint/internal/rdd"
	"flint/internal/simclock"
)

// CheckpointPolicy is the hook through which Flint's fault-tolerance
// manager (internal/ckpt) drives automated checkpointing. All methods are
// called on the simulation thread.
type CheckpointPolicy interface {
	// ShouldCheckpoint reports whether a freshly materialized partition of
	// r should be written to the checkpoint store.
	ShouldCheckpoint(r *rdd.RDD, now float64) bool
	// NotifyStageActive fires when the engine starts computing r.
	NotifyStageActive(r *rdd.RDD, now float64)
	// NotifyStageDone fires when r's stage has no remaining work.
	NotifyStageDone(r *rdd.RDD, now float64)
	// NotifyCheckpointDone fires when one partition checkpoint completes.
	NotifyCheckpointDone(r *rdd.RDD, part int, bytes int64, wrote float64, now float64)
}

// Config tunes the engine.
type Config struct {
	Cost CostModel
	// Retry bounds the retry-with-backoff recovery for transient
	// checkpoint-write and shuffle-fetch failures (chaos injection).
	// Zero fields take DefaultRetryPolicy.
	Retry RetryPolicy
	// SystemCheckpointInterval, when positive, enables the systems-level
	// checkpointing baseline of Figure 6b: every interval, each node
	// writes its entire memory state (cached partitions + shuffle
	// buffers) to the store.
	SystemCheckpointInterval float64
	// MaxEvents bounds RunJob's event count as a runaway guard (e.g. a
	// cluster whose MTTF is below the checkpoint time never progresses,
	// which the paper notes as the δ ≪ MTTF requirement).
	MaxEvents int
	// Workers bounds the goroutines that execute task user code during a
	// dispatch round (see workers.go for the determinism contract).
	// 0 uses the process default (SetDefaultWorkers, falling back to
	// runtime.GOMAXPROCS(0)); 1 runs fully serially, reproducing the
	// original single-threaded engine exactly. Any value produces
	// bit-identical results, stats, metrics and trace order in virtual
	// time; only wall-clock speed changes.
	Workers int
	// Backend selects the executor model (see backend.go and
	// docs/SERVERLESS.md). nil and VMBackend() are byte-identical: slots
	// are VM cores with local caches and lease billing. A backend whose
	// KeepsLocalState() is false (serverless.New) runs tasks as
	// ephemeral function invocations with externalized state.
	Backend Backend
}

// DefaultConfig returns the calibrated engine configuration.
func DefaultConfig() Config {
	return Config{Cost: DefaultCostModel(), MaxEvents: 20_000_000}
}

// Metrics aggregates engine-wide counters across jobs.
type Metrics struct {
	Revocations     int
	NodesJoined     int
	TasksLaunched   int
	TasksKilled     int
	CheckpointTasks int
	CheckpointBytes int64
	SystemCkptTasks int
	ComputeSeconds  float64 // total slot-seconds of compute tasks
	CkptSeconds     float64 // total slot-seconds of checkpoint tasks
}

// nodeState is the engine's view of one live server.
type nodeState struct {
	node      *cluster.Node
	freeSlots int
	cache     *blockCache
	running   map[*task]bool
	// sysCkptInFlight guards against overlapping system-level checkpoint
	// writes when the interval is shorter than the write time.
	sysCkptInFlight bool
}

// Engine schedules jobs over the cluster.
type Engine struct {
	clock  *simclock.Clock
	store  *dfs.Store
	cfg    Config
	cost   CostModel
	policy CheckpointPolicy

	nodes    map[int]*nodeState
	shuffles *shuffleTracker

	queue       []*task
	nextTaskSeq int
	nextStageID int
	nextJobID   int
	activeJobs  []*job
	pendingCkpt map[blockKey]bool
	computeSeen map[blockKey]int // how many times each partition was computed
	rrCursor    int
	sysTickOn   bool

	// workers is the resolved parallel execution width (see workers.go).
	workers int
	// scatterSem caps the helper goroutines map tasks may recruit for
	// parallel bucketing at workers-1 pool-wide (see parbucket.go);
	// capacity zero (Workers=1) keeps bucketing strictly inline.
	scatterSem chan struct{}

	// faults is the chaos injection hook (nil = no injection, zero
	// overhead); retry bounds the recovery behaviour it forces.
	faults FaultInjector
	retry  RetryPolicy

	// backend is the executor model; fnMode caches whether it
	// externalizes state (KeepsLocalState() == false), which gates every
	// serverless branch so the nil/VM path stays byte-identical.
	backend Backend
	fnMode  bool

	// Scheduler control plane (control.go).
	holders    map[blockKey]int        // block-location index: live caches holding each block
	blockWatch map[blockKey][]walkRef  // memoized walks that read each block's presence
	depWatch   map[shuffleID][]walkRef // memoized walks that read each dep's availability
	storeSeq   uint64                  // cursor into the store's presence log
	changeBuf  []string                // syncControl's presence-log scratch
	walkSeen   []blockKey              // blocks visited by the current walk
	needBuf    []int                   // replan's needed-partition scratch
	// lineageProbes counts walk steps not yet added to obs.
	lineageProbes int64
	// checkMemo, set only by engine tests, cross-checks every stage visit
	// against fresh reference walks and panics on any difference.
	checkMemo bool

	obs *obs.Obs
	// revokedAt holds the revocation instants still awaiting a
	// replacement node, oldest first, for the recovery-time histogram.
	revokedAt []float64

	metrics Metrics
}

// New creates an engine. Attach it to a cluster manager by passing
// Events() to cluster.New, then start the manager.
func New(clock *simclock.Clock, store *dfs.Store, cfg Config, policy CheckpointPolicy) *Engine {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 20_000_000
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	e := &Engine{
		clock: clock, store: store, cfg: cfg, cost: cfg.Cost, policy: policy,
		nodes:       make(map[int]*nodeState),
		shuffles:    newShuffleTracker(),
		pendingCkpt: make(map[blockKey]bool),
		computeSeen: make(map[blockKey]int),
		holders:     make(map[blockKey]int),
		blockWatch:  make(map[blockKey][]walkRef),
		depWatch:    make(map[shuffleID][]walkRef),
		workers:     resolveWorkers(cfg.Workers),
		scatterSem:  make(chan struct{}, resolveWorkers(cfg.Workers)-1),
		retry:       cfg.Retry.withDefaults(),
		obs:         obs.Active(),
		backend:     cfg.Backend,
	}
	if e.backend == nil {
		e.backend = vmBackend{}
	}
	e.fnMode = !e.backend.KeepsLocalState()
	_, e.storeSeq, _ = store.Changes(0, nil)
	e.obs.ExecWorkers.Set(float64(e.workers))
	return e
}

// Clock returns the engine's virtual clock.
func (e *Engine) Clock() *simclock.Clock { return e.clock }

// SetObs installs the observability bundle the engine reports to. A nil
// argument installs the shared no-op bundle.
func (e *Engine) SetObs(o *obs.Obs) {
	if o == nil {
		o = obs.Nop()
	}
	e.obs = o
	e.obs.ExecWorkers.Set(float64(e.workers))
}

// Snapshot returns a copy of the engine-wide counters. Readers (webui,
// CLIs, experiments) must use this instead of reaching into engine state,
// so they never observe a half-updated struct.
func (e *Engine) Snapshot() Metrics { return e.metrics }

// SetPolicy installs (or replaces) the checkpoint policy. It exists
// because the policy usually needs the same clock and store the engine
// was built with.
func (e *Engine) SetPolicy(p CheckpointPolicy) { e.policy = p }

// Store returns the checkpoint store.
func (e *Engine) Store() *dfs.Store { return e.store }

// Backend returns the executor backend (vmBackend when Config.Backend
// was nil), for cost readout by experiments and CLIs.
func (e *Engine) Backend() Backend { return e.backend }

// Events returns the cluster-event handlers that wire a cluster.Manager
// to this engine.
func (e *Engine) Events() cluster.Events {
	return cluster.Events{
		OnNodeUp:  e.onNodeUp,
		OnRevoked: e.onRevoked,
	}
}

func (e *Engine) onNodeUp(n *cluster.Node) {
	if _, dup := e.nodes[n.ID]; dup {
		return
	}
	now := e.clock.Now()
	cache := newBlockCache(n.MemBytes, n.LocalDisk)
	cache.onEvict = func(k blockKey, bytes int64, demoted bool) {
		bits := 0
		if demoted {
			bits = 1
			e.obs.EvictToDisk.Inc()
		} else {
			e.obs.EvictDropped.Inc()
		}
		e.obs.Emit(obs.Event{
			Type: obs.EvBlockEvict, Time: e.clock.Now(),
			Node: n.ID, RDD: k.rddID, Part: k.part, Bytes: bytes, Bits: bits,
		})
	}
	cache.onPresence = e.notePresence
	e.nodes[n.ID] = &nodeState{
		node:      n,
		freeSlots: n.Slots,
		cache:     cache,
		running:   make(map[*task]bool),
	}
	e.metrics.NodesJoined++
	e.obs.NodesJoined.Inc()
	e.obs.LiveNodes.Set(float64(len(e.nodes)))
	e.obs.Emit(obs.Event{Type: obs.EvNodeUp, Time: now, Node: n.ID, Pool: n.Pool})
	// A node joining while revocations are outstanding is a replacement:
	// close the oldest recovery interval.
	if len(e.revokedAt) > 0 {
		e.obs.RecoveryTime.Observe(now - e.revokedAt[0])
		e.revokedAt = e.revokedAt[1:]
	}
	e.pump()
}

func (e *Engine) onRevoked(n *cluster.Node) {
	ns, ok := e.nodes[n.ID]
	if !ok {
		return
	}
	e.metrics.Revocations++
	e.obs.Revocations.Inc()
	e.obs.Emit(obs.Event{Type: obs.EvNodeRevoked, Time: e.clock.Now(), Node: n.ID, Pool: n.Pool})
	e.revokedAt = append(e.revokedAt, e.clock.Now())
	// Kill running tasks; their completion events become no-ops and the
	// work is re-discovered by the scheduler from ground truth.
	for t := range ns.running {
		t.killed = true
		e.metrics.TasksKilled++
		e.obs.TasksKilled.Inc()
		if t.kind == taskCompute {
			t.stage.job.stats.TasksKilled++
			delete(t.stage.inFlight, t.part)
			t.stage.dirty = true
		}
		if t.kind == taskCheckpoint {
			delete(e.pendingCkpt, blockKey{rddID: t.ckptRDD.ID, part: t.part})
		}
	}
	// All volatile state on the node is gone. (Presence updates commute,
	// so the map order of this loop is irrelevant.)
	for k := range ns.cache.blocks {
		e.notePresence(k, false)
	}
	e.shuffles.dropNode(n.ID)
	delete(e.nodes, n.ID)
	e.obs.LiveNodes.Set(float64(len(e.nodes)))
	e.pump()
}

// checkpointKey is the store key for partition (r, p).
func checkpointKey(r *rdd.RDD, p int) string { return dfs.Key(r.ID, p) }

// fnCacheKey is the store key a function backend externalizes cached
// partition (r, p) under. It is a namespace of its own, distinct from
// the checkpoint manager's rdd/ keys, so the checkpoint-store
// consistency audit never mistakes externalized cache for orphaned
// checkpoints.
func fnCacheKey(r *rdd.RDD, p int) string {
	var buf [48]byte
	return string(dfs.AppendPartKey(buf[:0], fnCacheDir, r.ID, p))
}

// fnCacheDir is the store directory of externalized cached partitions.
const fnCacheDir = "fncache/"

// fnShuffleKey is the store key a function backend mirrors map output
// part of shuffle sid under.
func fnShuffleKey(sid shuffleID, part int) string {
	var buf [48]byte
	b := strconv.AppendInt(append(buf[:0], "fnshuffle/"...), int64(sid), 10)
	b = strconv.AppendInt(append(b, "/map/"...), int64(part), 10)
	return string(b)
}

// Submit enqueues a job; cb runs at the virtual instant the job
// completes.
func (e *Engine) Submit(target *rdd.RDD, action Action, cb func(*Result)) {
	e.nextJobID++
	e.nextStageID++
	j := &job{
		id: e.nextJobID, target: target, action: action, cb: cb,
		mapStages: make(map[*rdd.ShuffleDep]*stage),
		results:   make([][]rdd.Row, target.NumParts),
		delivered: make([]bool, target.NumParts),
		start:     e.clock.Now(),
	}
	j.resultStage = &stage{
		id: e.nextStageID, job: j, out: target,
		numTasks: target.NumParts, inFlight: make(map[int]bool),
		hint: narrowClosureSize(target),
	}
	e.activeJobs = append(e.activeJobs, j)
	e.obs.Emit(obs.Event{Type: obs.EvJobSubmit, Time: j.start, Job: j.id})
	if e.cfg.SystemCheckpointInterval > 0 && !e.sysTickOn {
		e.sysTickOn = true
		e.clock.After(e.cfg.SystemCheckpointInterval, e.systemCkptTick)
	}
	e.pump()
}

// RunJob submits a job and drives the clock until it completes, returning
// its result. Events unrelated to the job (market revocations, node
// replacements) are processed as they come due.
func (e *Engine) RunJob(target *rdd.RDD, action Action) (*Result, error) {
	var res *Result
	e.Submit(target, action, func(r *Result) { res = r })
	steps := 0
	for res == nil {
		if !e.clock.Step() {
			return nil, fmt.Errorf("exec: job on %s deadlocked: no pending events (cluster empty and no replacements?)", target)
		}
		steps++
		if steps > e.cfg.MaxEvents {
			return nil, fmt.Errorf("exec: job on %s exceeded %d events; the cluster may be revoking faster than it can recompute (MTTF below checkpoint time)", target, e.cfg.MaxEvents)
		}
	}
	return res, nil
}

// pump is the heart of the scheduler: it re-derives, from ground truth
// (delivered results, registered shuffle outputs, live caches and
// checkpoints), which tasks must run, enqueues them, and dispatches onto
// free slots. It is idempotent and is invoked on every state change;
// the derivation is incremental (control.go).
func (e *Engine) pump() {
	visited := make(map[*stage]bool)
	for _, j := range e.activeJobs {
		if !j.finished {
			e.trySubmit(j.resultStage, visited)
		}
	}
	e.obs.ExecLineageProbes.Add(e.lineageProbes)
	e.lineageProbes = 0
	e.dispatch()
}

func (e *Engine) enqueueCompute(s *stage, part int) {
	e.nextTaskSeq++
	t := &task{seq: e.nextTaskSeq, kind: taskCompute, stage: s, part: part}
	s.inFlight[part] = true
	e.queue = append(e.queue, t)
}

// enqueueCheckpoint schedules an asynchronous checkpoint write of one
// partition, pinned to the node holding the freshly computed rows.
func (e *Engine) enqueueCheckpoint(ns *nodeState, cp computedPart) {
	e.nextTaskSeq++
	t := &task{
		seq: e.nextTaskSeq, kind: taskCheckpoint, node: ns, pinned: true,
		ckptRDD: cp.r, part: cp.part, ckptData: cp.data, ckptBytes: cp.bytes,
		attempt: 1,
	}
	e.pendingCkpt[blockKey{rddID: cp.r.ID, part: cp.part}] = true
	e.queue = append(e.queue, t)
}

// dispatch places queued tasks onto free slots, preferring data locality
// for compute tasks and honoring pinning for checkpoint tasks. It runs in
// three phases: slot assignment on the simulation thread (in queue
// order), effects computation fanned out across the worker pool, and
// effects commitment back on the simulation thread in assignment order —
// so the observable schedule is independent of Config.Workers.
func (e *Engine) dispatch() {
	if len(e.queue) == 0 {
		return
	}
	nodes := e.sortedNodes()
	if len(nodes) == 0 {
		return
	}
	var remaining, launched []*task
	for qi := 0; qi < len(e.queue); qi++ {
		t := e.queue[qi]
		if t.killed {
			continue
		}
		if t.pinned {
			ns, alive := e.nodes[t.node.node.ID]
			if !alive || ns != t.node {
				// Node revoked before the write started: the data is gone.
				if t.kind == taskCheckpoint {
					delete(e.pendingCkpt, blockKey{rddID: t.ckptRDD.ID, part: t.part})
				}
				continue
			}
			if ns.freeSlots > 0 {
				e.assign(t, ns)
				launched = append(launched, t)
			} else {
				remaining = append(remaining, t)
			}
			continue
		}
		ns := e.pickNode(t, nodes)
		if ns == nil {
			remaining = append(remaining, t)
			continue
		}
		e.assign(t, ns)
		launched = append(launched, t)
	}
	e.queue = remaining
	if len(launched) == 0 {
		return
	}
	e.runTaskBatch(launched, nodes)
	for _, t := range launched {
		e.commit(t)
	}
}

// pickNode chooses a node with a free slot, preferring the node that
// caches the task's target partition, then round-robin.
func (e *Engine) pickNode(t *task, nodes []*nodeState) *nodeState {
	if t.kind == taskCompute {
		k := blockKey{rddID: t.stage.out.ID, part: t.part}
		for _, ns := range nodes {
			if ns.freeSlots > 0 && ns.cache.has(k) {
				return ns
			}
		}
	}
	n := len(nodes)
	for i := 0; i < n; i++ {
		ns := nodes[(e.rrCursor+i)%n]
		if ns.freeSlots > 0 {
			e.rrCursor = (e.rrCursor + i + 1) % n
			return ns
		}
	}
	return nil
}

// assign binds a task to a slot on a node and emits its launch event.
// The task's work has not run yet — that happens in the round's batch —
// so assign must not read anything the batch will compute.
func (e *Engine) assign(t *task, ns *nodeState) {
	t.node = ns
	ns.freeSlots--
	ns.running[t] = true
	e.metrics.TasksLaunched++
	e.obs.TasksLaunched.Inc()
	now := e.clock.Now()
	switch t.kind {
	case taskCompute:
		t.stage.job.stats.TasksLaunched++
		e.obs.Emit(obs.Event{
			Type: obs.EvTaskLaunch, Time: now, Job: t.stage.job.id,
			Stage: t.stage.id, Task: t.seq, Node: ns.node.ID, Part: t.part,
		})
	case taskCheckpoint:
		e.obs.Emit(obs.Event{
			Type: obs.EvCheckpointBegin, Time: now, Task: t.seq,
			Node: ns.node.ID, RDD: t.ckptRDD.ID, Part: t.part, Bytes: t.ckptBytes,
		})
	case taskSystemCkpt:
		e.obs.Emit(obs.Event{
			Type: obs.EvCheckpointBegin, Time: now, Task: t.seq,
			Node: ns.node.ID, Bytes: t.sysBytes,
		})
	}
	if e.fnMode {
		e.applyInvoke(t, ns, now)
	}
}

// commit applies a task's dispatch-time effects on the simulation thread
// — the reads its computation performed (LRU touches, checkpoint-store
// read accounting), the charged slot time — and schedules its completion
// event. Called in assignment order, it reproduces the serial engine's
// state transitions exactly.
func (e *Engine) commit(t *task) {
	t.dur = t.eff.duration
	if t.invokeDelay > 0 {
		// Function launch latency (cold start, admission retries) charged
		// at assignment occupies the slot before the work begins.
		t.dur += t.invokeDelay
	}
	if t.eff.slowed {
		e.obs.ChaosSlowdowns.Inc()
	}
	switch t.kind {
	case taskCompute:
		e.metrics.ComputeSeconds += t.dur
		for _, tc := range t.eff.lruTouches {
			tc.cache.touch(tc.key)
		}
		if t.eff.ckptReads > 0 {
			e.store.NoteReads(t.eff.ckptReads, t.eff.storeReadBytes)
		}
	case taskCheckpoint, taskSystemCkpt:
		e.metrics.CkptSeconds += t.dur
	}
	e.clock.After(t.dur, func() { e.onTaskDone(t) })
}

// onTaskDone applies a finished task's effects.
func (e *Engine) onTaskDone(t *task) {
	if t.killed {
		return
	}
	ns := t.node
	ns.freeSlots++
	delete(ns.running, t)
	now := e.clock.Now()
	if e.fnMode {
		// Every completed task is one billed invocation; its slot returns
		// to the node's warm pool.
		e.backend.NoteRelease(ns.node.ID, now)
		e.backend.AccrueInvocation(t.dur)
		e.obs.FnBilledDollars.Set(e.backend.AccruedCost())
		e.obs.FnBilledGBSeconds.Set(e.backend.AccruedGBSeconds())
	}

	switch t.kind {
	case taskCheckpoint:
		k := blockKey{rddID: t.ckptRDD.ID, part: t.part}
		if e.faults != nil && e.faults.CkptWriteFails(t.ckptRDD.ID, t.part, t.attempt, now) {
			e.onCheckpointWriteFailed(t, now)
			return
		}
		delete(e.pendingCkpt, k)
		e.store.Put(checkpointKey(t.ckptRDD, t.part), t.ckptData, t.ckptBytes, now)
		e.metrics.CheckpointTasks++
		e.metrics.CheckpointBytes += t.ckptBytes
		e.obs.CheckpointTasks.Inc()
		e.obs.CheckpointBytes.Add(t.ckptBytes)
		e.obs.CkptDur.Observe(t.dur)
		e.obs.CkptWriteBytes.Observe(float64(t.ckptBytes))
		e.obs.Emit(obs.Event{
			Type: obs.EvCheckpointEnd, Time: now, Dur: t.dur, Task: t.seq,
			Node: ns.node.ID, RDD: t.ckptRDD.ID, Part: t.part, Bytes: t.ckptBytes,
		})
		if e.policy != nil {
			e.policy.NotifyCheckpointDone(t.ckptRDD, t.part, t.ckptBytes, e.store.WriteTime(t.ckptBytes), now)
		}
		e.pump()
		return
	case taskSystemCkpt:
		ns.sysCkptInFlight = false
		e.store.Put("sys/node/"+strconv.Itoa(ns.node.ID), nil, t.sysBytes, now)
		e.metrics.SystemCkptTasks++
		e.obs.SystemCkptTasks.Inc()
		e.obs.Emit(obs.Event{
			Type: obs.EvCheckpointEnd, Time: now, Dur: t.dur, Task: t.seq,
			Node: ns.node.ID, Bytes: t.sysBytes,
		})
		e.pump()
		return
	}

	s := t.stage
	j := s.job
	delete(s.inFlight, t.part)
	s.dirty = true
	e.obs.TaskDur.Observe(t.dur)
	e.obs.Emit(obs.Event{
		Type: obs.EvTaskDone, Time: now, Dur: t.dur, Job: j.id,
		Stage: s.id, Task: t.seq, Node: ns.node.ID, Part: t.part,
	})

	if t.eff.fetchRetries > 0 {
		// Injected fetch failures the task retried through (whether or
		// not it ultimately succeeded), booked on the simulation thread.
		e.obs.ChaosFetchFailures.Add(int64(t.eff.fetchRetries))
		e.obs.RetryAttempts.Add(int64(t.eff.fetchRetries))
		e.obs.RetryBackoff.Observe(t.eff.retryBackoff)
		e.obs.Emit(obs.Event{
			Type: obs.EvRetry, Time: now, Dur: t.eff.retryBackoff,
			Task: t.seq, Node: ns.node.ID, Part: t.part, Bits: t.eff.fetchRetries,
		})
	}
	if len(t.eff.fetchFailed) > 0 {
		j.stats.FetchFailures++
		// Retry-exhausted sources: their map outputs for the dep are
		// treated as lost, so the parent stage genuinely recomputes
		// instead of refetching the same poisoned outputs forever.
		for _, inj := range t.eff.injectedFetch {
			e.shuffles.dropDepNode(inj.dep, inj.node)
			e.obs.RetryExhausted.Inc()
			e.obs.Emit(obs.Event{
				Type: obs.EvFaultInjected, Time: now, Task: t.seq,
				Node: inj.node, Part: t.part, Bits: faultBitFetch,
			})
		}
		e.pump() // resubmission happens from ground truth
		return
	}

	// Book compute statistics.
	j.stats.ShuffleBytesRemote += t.eff.remoteBytes
	j.stats.ShuffleBytesLocal += t.eff.localBytes
	j.stats.CacheHits += t.eff.cacheHits
	j.stats.CacheMisses += t.eff.cacheMisses
	j.stats.CheckpointReads += t.eff.ckptReads
	e.obs.ShuffleRemote.Add(t.eff.remoteBytes)
	e.obs.ShuffleLocal.Add(t.eff.localBytes)
	e.obs.CacheHits.Add(int64(t.eff.cacheHits))
	e.obs.CacheMisses.Add(int64(t.eff.cacheMisses))
	for _, cp := range t.eff.computed {
		k := blockKey{rddID: cp.r.ID, part: cp.part}
		e.computeSeen[k]++
		if e.computeSeen[k] > 1 {
			j.stats.RecomputedPartitions++
			e.obs.Recomputed.Inc()
		}
	}
	// Cache insertions — or, on a function backend, externalization: the
	// invocation's sandbox dies with the task, so cached partitions land
	// in the dfs store under fncache/ keys (the write time was already
	// charged into the task's duration by record).
	for _, cp := range t.eff.toCache {
		if e.fnMode {
			e.store.Put(fnCacheKey(cp.r, cp.part), cp.data, cp.bytes, now)
			continue
		}
		ns.cache.put(blockKey{rddID: cp.r.ID, part: cp.part}, cp.data, cp.bytes)
	}
	if e.fnMode && (t.eff.extReadBytes > 0 || t.eff.extWriteBytes > 0) {
		e.obs.FnExtReadBytes.Add(t.eff.extReadBytes)
		e.obs.FnExtWriteBytes.Add(t.eff.extWriteBytes)
	}
	// Checkpoint consultation for everything materialized or touched
	// here: explicit RDD.Checkpoint() requests always write; otherwise
	// the automated policy decides.
	offer := append(append([]computedPart(nil), t.eff.computed...), t.eff.touched...)
	for _, cp := range offer {
		k := blockKey{rddID: cp.r.ID, part: cp.part}
		if e.pendingCkpt[k] {
			continue
		}
		// Already checkpointed, or durable via externalization (a
		// checkpoint copy would only duplicate it).
		if ok, _ := e.durable(k); ok {
			continue
		}
		if cp.r.CheckpointRequested || (e.policy != nil && e.policy.ShouldCheckpoint(cp.r, now)) {
			j.stats.CheckpointTasks++
			j.stats.CheckpointBytes += cp.bytes
			e.enqueueCheckpoint(ns, cp)
		}
	}

	if s.isResult() {
		if !j.delivered[t.part] {
			j.delivered[t.part] = true
			j.results[t.part] = t.eff.resultRows
			j.nDelivered++
		}
		if j.nDelivered == s.numTasks {
			e.finishJob(j, now)
		}
	} else {
		pub := ns.node.ID
		if e.fnMode {
			// Map outputs are uploaded to the external store (charged in
			// runCompute), so they survive any revocation: register them
			// under the external pseudo node and mirror the bytes into the
			// store's accounting for storage billing and audits.
			pub = externalNode
		}
		e.shuffles.putOutput(s.dep, t.part, pub, t.eff.mapBuckets)
		if e.fnMode {
			sid := e.shuffles.register(s.dep)
			if o := e.shuffles.state(s.dep).outputs[t.part]; o != nil {
				e.store.Put(fnShuffleKey(sid, t.part), nil, o.total, now)
			}
		}
		if e.shuffles.state(s.dep).available() && len(s.inFlight) == 0 && s.active {
			s.active = false
			e.emitStageDone(s, now)
			if e.policy != nil {
				e.policy.NotifyStageDone(s.out, now)
			}
		}
	}
	e.pump()
}

// Fault-kind discriminators carried in EvFaultInjected's Bits field.
// internal/chaos uses further values for the faults it injects itself
// (revocations, market crashes, store read corruption).
const (
	faultBitCkptWrite = 1
	faultBitFetch     = 2
	faultBitInvoke    = 5
)

// onCheckpointWriteFailed handles an injected transient checkpoint-write
// failure: bounded retry with virtual-clock backoff on the same pinned
// node, then abandonment (the partition stays un-checkpointed; the next
// materialization re-offers it to the policy).
func (e *Engine) onCheckpointWriteFailed(t *task, now float64) {
	k := blockKey{rddID: t.ckptRDD.ID, part: t.part}
	e.obs.ChaosCkptWriteFailures.Inc()
	e.obs.Emit(obs.Event{
		Type: obs.EvFaultInjected, Time: now, Task: t.seq,
		Node: t.node.node.ID, RDD: t.ckptRDD.ID, Part: t.part, Bits: faultBitCkptWrite,
	})
	if t.attempt < e.retry.MaxAttempts {
		d := e.retry.backoff(t.attempt)
		e.obs.RetryAttempts.Inc()
		e.obs.RetryBackoff.Observe(d)
		e.obs.Emit(obs.Event{
			Type: obs.EvRetry, Time: now, Dur: d, Task: t.seq,
			RDD: t.ckptRDD.ID, Part: t.part, Bits: t.attempt,
		})
		// pendingCkpt stays set through the wait so completions of other
		// tasks don't enqueue a duplicate write of the same partition.
		e.clock.After(d, func() { e.requeueCheckpoint(t) })
		e.pump()
		return
	}
	delete(e.pendingCkpt, k)
	e.obs.RetryExhausted.Inc()
	if fp, ok := e.policy.(FailureAwarePolicy); ok {
		fp.NotifyCheckpointFailed(t.ckptRDD, t.part, t.attempt, now)
	}
	e.pump()
}

// requeueCheckpoint re-enqueues a failed checkpoint write after its
// backoff wait, pinned to the original node. If that node died during the
// wait the payload rows are gone with it and the write is abandoned.
func (e *Engine) requeueCheckpoint(t *task) {
	k := blockKey{rddID: t.ckptRDD.ID, part: t.part}
	ns, alive := e.nodes[t.node.node.ID]
	if !alive || ns != t.node {
		delete(e.pendingCkpt, k)
		e.pump()
		return
	}
	e.nextTaskSeq++
	e.queue = append(e.queue, &task{
		seq: e.nextTaskSeq, kind: taskCheckpoint, node: t.node, pinned: true,
		ckptRDD: t.ckptRDD, part: t.part, ckptData: t.ckptData, ckptBytes: t.ckptBytes,
		attempt: t.attempt + 1,
	})
	e.pump()
}

// emitStageDone records a stage's active interval as a span.
func (e *Engine) emitStageDone(s *stage, now float64) {
	e.obs.Emit(obs.Event{
		Type: obs.EvStageDone, Time: now, Dur: now - s.activeSince,
		Job: s.job.id, Stage: s.id, RDD: s.out.ID,
	})
}

// finishJob assembles the job result and invokes the callback.
func (e *Engine) finishJob(j *job, now float64) {
	j.finished = true
	if j.resultStage.active {
		j.resultStage.active = false
		e.emitStageDone(j.resultStage, now)
		if e.policy != nil {
			e.policy.NotifyStageDone(j.target, now)
		}
	}
	e.obs.JobDur.Observe(now - j.start)
	e.obs.Emit(obs.Event{Type: obs.EvJobFinish, Time: now, Dur: now - j.start, Job: j.id})
	res := &Result{Start: j.start, End: now, Stats: j.stats}
	switch j.action {
	case ActionCollect:
		for _, part := range j.results {
			res.Rows = append(res.Rows, part...)
		}
	case ActionCount:
		for _, part := range j.results {
			res.Count += int64(len(part))
		}
	}
	// Drop the per-partition buffers (collected rows now live in res)
	// and the memoized walks, which watch lists may still reference.
	j.results = nil
	j.resultStage.walks = nil
	for _, s := range j.mapStages {
		s.walks = nil
	}
	// Remove from active list.
	for i, a := range e.activeJobs {
		if a == j {
			e.activeJobs = append(e.activeJobs[:i], e.activeJobs[i+1:]...)
			break
		}
	}
	if j.cb != nil {
		j.cb(res)
	}
}

// systemCkptTick implements the systems-level checkpointing baseline:
// every interval, each node writes its full memory state.
func (e *Engine) systemCkptTick() {
	if len(e.activeJobs) == 0 {
		e.sysTickOn = false
		return
	}
	for _, ns := range e.sortedNodes() {
		if ns.sysCkptInFlight {
			continue
		}
		mem, disk := ns.cache.usage()
		bytes := mem + disk + e.shuffles.nodeBytes(ns.node.ID)
		if bytes == 0 {
			continue
		}
		ns.sysCkptInFlight = true
		e.nextTaskSeq++
		e.queue = append(e.queue, &task{
			seq: e.nextTaskSeq, kind: taskSystemCkpt, node: ns, pinned: true,
			sysBytes: bytes,
		})
	}
	e.dispatch()
	e.clock.After(e.cfg.SystemCheckpointInterval, e.systemCkptTick)
}

// LiveNodeCount returns the number of nodes currently registered.
func (e *Engine) LiveNodeCount() int { return len(e.nodes) }

// CachedBytes returns the cluster-wide cached bytes (memory + disk tiers).
func (e *Engine) CachedBytes() (mem, disk int64) {
	for _, ns := range e.nodes {
		m, d := ns.cache.usage()
		mem += m
		disk += d
	}
	return mem, disk
}

// ComputeCount returns how many times partition (rddID, part) has been
// computed (for recomputation assertions in tests).
func (e *Engine) ComputeCount(rddID, part int) int {
	return e.computeSeen[blockKey{rddID: rddID, part: part}]
}

// Audit cross-checks the engine's incremental state against a full
// recomputation from ground truth: every live node's cache counters
// versus its resident blocks, the shuffle tracker's per-node totals and
// missing counts versus the registered map outputs, the block-location
// index versus the live caches, and every memoized lineage walk versus a
// fresh one. It returns the first inconsistency found, or nil. Used by
// the chaos invariant checkers during and after a fault run.
func (e *Engine) Audit() error {
	for _, ns := range e.sortedNodes() {
		if err := ns.cache.audit(); err != nil {
			return fmt.Errorf("exec: node %d cache: %w", ns.node.ID, err)
		}
	}
	if err := e.shuffles.audit(); err != nil {
		return fmt.Errorf("exec: shuffle tracker: %w", err)
	}
	if err := e.auditControl(); err != nil {
		return fmt.Errorf("exec: control plane: %w", err)
	}
	return nil
}
