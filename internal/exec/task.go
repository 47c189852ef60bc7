package exec

import (
	"sort"

	"flint/internal/rdd"
)

// taskKind distinguishes the three things that occupy task slots.
type taskKind int

const (
	taskCompute    taskKind = iota // map- or result-stage computation
	taskCheckpoint                 // asynchronous RDD partition checkpoint write
	taskSystemCkpt                 // system-level full-node checkpoint (baseline)
)

// task is one unit of slot occupancy.
type task struct {
	seq    int
	kind   taskKind
	stage  *stage // taskCompute
	part   int
	node   *nodeState // pinned node for checkpoint tasks; assigned at dispatch otherwise
	pinned bool
	killed bool
	// attempt numbers retries of the same checkpoint write under fault
	// injection (1 = first try). Zero for other task kinds.
	attempt int

	// taskCheckpoint payload.
	ckptRDD   *rdd.RDD
	ckptData  *rdd.ColBatch
	ckptBytes int64

	// taskSystemCkpt payload.
	sysBytes int64

	// Function-backend launch state (fn mode only; see backend.go).
	// invokeDelay is virtual seconds of launch latency charged before
	// the work; cold marks a cold start; invokeFails counts injected
	// admission failures retried through; effColdSlow marks a
	// chaos-stretched cold start.
	invokeDelay float64
	cold        bool
	invokeFails int
	effColdSlow bool

	// Filled at dispatch for completion handling.
	eff *effects
	dur float64 // charged slot time, recorded at launch

	// busyWall is the real seconds the task's computation took on its
	// worker goroutine (observability only; not part of virtual time).
	busyWall float64
}

// computedPart is one partition materialized during a task, reported to
// the checkpoint policy at completion. data carries the partition in its
// batch form — columns travel on into the cache and checkpoint store
// without boxing; bytes stays the RowBytes estimate of the boxed rows.
type computedPart struct {
	r     *rdd.RDD
	part  int
	data  *rdd.ColBatch
	bytes int64
}

// cacheTouch records one LRU access a task performed against a node
// cache, to be replayed on the simulation thread in task seq order.
type cacheTouch struct {
	cache *blockCache
	key   blockKey
}

// effects is everything a compute task wants to apply to engine state at
// its completion event. Reads happen at dispatch time (task start) on a
// worker goroutine, so even the bookkeeping a read implies — LRU
// position, store read counters — is recorded here and replayed on the
// simulation thread; writes happen at completion so no state mutates
// before virtual time has passed.
type effects struct {
	duration    float64
	computed    []computedPart  // partitions produced by the pipeline
	touched     []computedPart  // cached partitions read (checkpoint candidates)
	toCache     []computedPart  // subset destined for the node cache
	mapBuckets  []*rdd.ColBatch // map-stage output buckets (column batches)
	resultRows  []rdd.Row       // result-stage partition rows (boxed at egress)
	fetchFailed []*rdd.ShuffleDep
	remoteBytes int64
	localBytes  int64
	cacheHits   int
	cacheMisses int
	ckptReads   int

	// Deferred read bookkeeping, applied by Engine.commit in seq order.
	lruTouches     []cacheTouch
	storeReadBytes int64

	// Externalized-state traffic (function backend only): shuffle
	// segments and cached partitions read from / written to the dfs
	// store instead of node-local memory.
	extReadBytes  int64
	extWriteBytes int64

	// Fault-injection bookkeeping (computed on the worker, booked on the
	// simulation thread at completion).
	fetchRetries  int                    // injected fetch failures retried through
	retryBackoff  float64                // virtual seconds of backoff charged
	injectedFetch []injectedFetchFailure // sources whose retries were exhausted
	slowed        bool                   // a straggler window stretched the duration
}

// taskCtx resolves one compute task's target partition, charging virtual
// time for every byte processed, fetched, or read. Partitions resolved
// once within a task are memoized — a pipelined chain touches each
// (RDD, partition) at most once, like one Spark task walking its
// iterator chain.
//
// A taskCtx may run on a worker goroutine, so it only *reads* shared
// engine state (caches via peek, the store via Peek, the shuffle tracker
// via lookup) against the node snapshot taken at round start; every
// mutation it implies is recorded in eff and replayed by Engine.commit.
type taskCtx struct {
	e     *Engine
	node  *nodeState
	nodes []*nodeState // round-start snapshot, node-ID order
	memo  map[blockKey]*rdd.ColBatch
	eff   *effects
}

// resolve returns partition (r, p) as a column batch, or nil if a
// shuffle fetch failed (eff.fetchFailed is then non-empty). Partitions
// travel as ColBatches through the whole pipeline — memo, cache,
// checkpoint store, shuffle — and box to []Row only at egress into an
// Fn closure (operators without a ColFn) or result delivery. All
// virtual-time charges derive from row counts via SizeOfRows, exactly
// as on the []Row plane, so durations and byte totals are identical
// whatever layout a batch carries.
func (tc *taskCtx) resolve(r *rdd.RDD, p int) *rdd.ColBatch {
	k := blockKey{rddID: r.ID, part: p}
	if b, ok := tc.memo[k]; ok {
		return b
	}
	// 1. RDD cache, preferring the local node. Cached partitions are
	// offered to the checkpoint policy at completion: Flint checkpoints
	// long-lived cached state (e.g. a database's tables) even when no
	// task recomputes it. A function backend has no node caches — every
	// cached partition lives externally and is found at step 2.
	if !tc.e.fnMode {
		if b, ok := tc.readCache(k, r); ok {
			tc.memo[k] = b
			tc.eff.touched = append(tc.eff.touched, computedPart{r: r, part: p, data: b, bytes: r.SizeOfRows(b.Len())})
			return b
		}
	}
	// 2. Externalized cache (function backend): the fn analogue of step
	// 1, except the partition lives in the store under an fncache/ key.
	if tc.e.fnMode {
		if v, bytes, ok := tc.e.store.Peek(fnCacheKey(r, p)); ok {
			b := v.(*rdd.ColBatch)
			tc.eff.duration += tc.e.store.ReadTime(bytes)
			tc.eff.ckptReads++
			tc.eff.storeReadBytes += bytes
			tc.eff.extReadBytes += bytes
			tc.memo[k] = b
			tc.record(r, p, b, true)
			return b
		}
	}
	// 3. Checkpoint store. Peek avoids mutating read counters on the
	// worker; commit books the reads via NoteReads.
	key := checkpointKey(r, p)
	if v, bytes, ok := tc.e.store.Peek(key); ok {
		b := v.(*rdd.ColBatch)
		tc.eff.duration += tc.e.store.ReadTime(bytes)
		tc.eff.ckptReads++
		tc.eff.storeReadBytes += bytes
		tc.memo[k] = b
		tc.record(r, p, b, true)
		return b
	}
	tc.eff.cacheMisses++
	// 4. Source generation. Sources hand back boxed rows; they enter the
	// batch plane as a zero-cost tail-only wrap (ingress extraction
	// happens at the map-side bucket scatter, where the columns are
	// built anyway).
	if r.IsSource() {
		rows := r.Gen(p)
		b := rdd.WrapRows(rows)
		tc.eff.duration += tc.e.cost.computeTime(r.SizeOfRows(len(rows)), r.Weight)
		tc.memo[k] = b
		tc.record(r, p, b, false)
		return b
	}
	// 5. Compute from parents.
	inputs := make([]*rdd.ColBatch, len(r.Deps))
	var inBytes int64
	for i, d := range r.Deps {
		switch dep := d.(type) {
		case *rdd.NarrowDep:
			pp := dep.ParentPart(p)
			if pp < 0 {
				continue
			}
			b := tc.resolve(dep.P, pp)
			if len(tc.eff.fetchFailed) > 0 {
				return nil
			}
			inputs[i] = b
			inBytes += dep.P.SizeOfRows(b.Len())
		case *rdd.ShuffleDep:
			res, ok := tc.fetchShuffle(dep, p)
			if !ok {
				return nil
			}
			// The fetch itself is a copy-free multi-segment view; the one
			// materialization per task happens here — column segments
			// concatenate column-to-column, single segments pass through
			// as-is (rdd.ConcatBatches).
			inputs[i] = res.materialize()
			if tc.e.fnMode {
				// All segments live in the external store (registered under
				// the external pseudo node), so the fetch is store reads,
				// not node-to-node network transfers.
				ext := res.remoteBytes + res.localBytes
				tc.eff.duration += tc.e.store.ReadTime(ext)
				tc.eff.extReadBytes += ext
			} else {
				tc.eff.duration += tc.e.cost.netTime(res.remoteBytes)
				tc.eff.remoteBytes += res.remoteBytes
				tc.eff.localBytes += res.localBytes
			}
			inBytes += res.remoteBytes + res.localBytes
		}
	}
	var b *rdd.ColBatch
	if r.ColFn != nil {
		b = r.ColFn(p, inputs)
	} else {
		// Egress: box each input batch for the row-plane closure. A
		// tail-only batch hands its rows through untouched, so operators
		// that never saw columns pay nothing here.
		rowIns := make([][]rdd.Row, len(inputs))
		for i, in := range inputs {
			if in != nil {
				rowIns[i] = in.Rows()
			}
		}
		b = rdd.WrapRows(r.Fn(p, rowIns))
	}
	tc.eff.duration += tc.e.cost.computeTime(inBytes, r.Weight)
	tc.memo[k] = b
	tc.record(r, p, b, false)
	return b
}

// fetchShuffle gathers reduce partition p of dep, retrying through
// injected fetch failures with bounded virtual-clock backoff. It returns
// ok=false when the fetch cannot complete — genuinely missing map outputs,
// or retry exhaustion against an injected failure (recorded in
// eff.injectedFetch so the engine drops that source's outputs). Decisions
// are pure functions of (source node, attempt, round instant), so the
// loop is identical on any worker width.
func (tc *taskCtx) fetchShuffle(dep *rdd.ShuffleDep, p int) (fetchResult, bool) {
	res := tc.e.shuffles.fetch(dep, p, tc.node.node.ID)
	if len(res.missing) > 0 {
		tc.eff.fetchFailed = append(tc.eff.fetchFailed, dep)
		return res, false
	}
	if tc.e.faults == nil {
		return res, true
	}
	now := tc.e.clock.Now()
	for attempt := 1; ; attempt++ {
		src := tc.failedFetchSource(dep, attempt, now)
		if src < 0 {
			return res, true
		}
		if attempt >= tc.e.retry.MaxAttempts {
			tc.eff.fetchFailed = append(tc.eff.fetchFailed, dep)
			tc.eff.injectedFetch = append(tc.eff.injectedFetch, injectedFetchFailure{dep: dep, node: src})
			return res, false
		}
		d := tc.e.retry.backoff(attempt)
		tc.eff.duration += d
		tc.eff.retryBackoff += d
		tc.eff.fetchRetries++
	}
}

// failedFetchSource returns the lowest-map-partition remote source node
// the injector fails for this attempt, or -1. Node-local reads never
// traverse the network and cannot fail.
func (tc *taskCtx) failedFetchSource(dep *rdd.ShuffleDep, attempt int, now float64) int {
	st := tc.e.shuffles.lookup(dep)
	if st == nil {
		return -1
	}
	for _, o := range st.outputs {
		if o == nil || o.nodeID == tc.node.node.ID {
			continue
		}
		if tc.e.faults.FetchFails(o.nodeID, attempt, now) {
			return o.nodeID
		}
	}
	return -1
}

// readCache looks for block k in the local cache first, then remotely on
// other live nodes (charging a network transfer). Lookups use peek — no
// LRU movement on the worker — and record the touch for commit to
// replay, so the final LRU order matches the serial engine's.
func (tc *taskCtx) readCache(k blockKey, r *rdd.RDD) (*rdd.ColBatch, bool) {
	if b, ok := tc.node.cache.peek(k); ok {
		tc.eff.lruTouches = append(tc.eff.lruTouches, cacheTouch{cache: tc.node.cache, key: k})
		if b.where == tierDisk {
			tc.eff.duration += tc.e.cost.diskTime(b.bytes)
		}
		tc.eff.cacheHits++
		return b.data, true
	}
	for _, ns := range tc.nodes {
		if ns == tc.node {
			continue
		}
		if b, ok := ns.cache.peek(k); ok {
			tc.eff.lruTouches = append(tc.eff.lruTouches, cacheTouch{cache: ns.cache, key: k})
			tc.eff.duration += tc.e.cost.netTime(b.bytes)
			if b.where == tierDisk {
				tc.eff.duration += tc.e.cost.diskTime(b.bytes)
			}
			tc.eff.cacheHits++
			return b.data, true
		}
	}
	return nil, false
}

// record notes a freshly materialized partition for cache insertion and
// checkpoint-policy consultation at completion time. fromStore marks
// partitions that were read back from the dfs store rather than
// computed: on a function backend those are already external and must
// not be re-uploaded.
func (tc *taskCtx) record(r *rdd.RDD, p int, b *rdd.ColBatch, fromStore bool) {
	cp := computedPart{r: r, part: p, data: b, bytes: r.SizeOfRows(b.Len())}
	tc.eff.computed = append(tc.eff.computed, cp)
	if !r.Cached {
		return
	}
	if tc.e.fnMode {
		if fromStore {
			return
		}
		// The invocation uploads the partition before its sandbox exits;
		// the write is part of the billed duration. The Put itself happens
		// at completion on the simulation thread (Engine.onTaskDone).
		tc.eff.duration += tc.e.store.WriteTime(cp.bytes)
		tc.eff.extWriteBytes += cp.bytes
	}
	tc.eff.toCache = append(tc.eff.toCache, cp)
}

// runCompute executes a compute task's work at dispatch time and returns
// its effects. Safe to call from a worker goroutine: it reads only the
// frozen round state (see workers.go).
func (e *Engine) runCompute(t *task, nodes []*nodeState) *effects {
	// Size the memo and effect slices for the narrow pipeline this stage
	// resolves: one entry per (RDD, partition) the task can touch.
	hint := t.stage.pipeHint()
	eff := &effects{
		duration: e.cost.TaskOverhead,
		computed: make([]computedPart, 0, hint),
	}
	tc := &taskCtx{e: e, node: t.node, nodes: nodes, memo: make(map[blockKey]*rdd.ColBatch, hint), eff: eff}
	b := tc.resolve(t.stage.out, t.part)
	if len(eff.fetchFailed) > 0 {
		// The failed fetch consumed only the launch overhead, plus any
		// backoff waits spent retrying injected failures.
		eff.duration = e.cost.TaskOverhead + eff.retryBackoff
		return eff
	}
	if t.stage.isResult() {
		// Result egress: the one boxing point on the collect path.
		eff.resultRows = b.Rows()
		return eff
	}
	// Map side of a shuffle: bucket (and combine) the batch. Columnar
	// deps scatter the typed columns directly; row-plane deps run the
	// classic two-pass exact-size bucketer. The pass is charged at half
	// the weight of a regular transformation. Large partitions recruit
	// idle pool capacity for the scatter and the combine (parbucket.go,
	// parbucketcol.go); the output is byte-identical to the serial
	// composition either way.
	dep := t.stage.dep
	buckets := e.bucketAndCombineBatch(dep, b)
	eff.duration += e.cost.computeTime(dep.P.SizeOfRows(b.Len()), 0.5)
	eff.mapBuckets = buckets
	if e.fnMode {
		// The invocation uploads its bucket file to the external store
		// before exiting; reducers will read it back from there.
		var total int64
		for _, bk := range buckets {
			if bk != nil {
				total += dep.P.SizeOfRows(bk.Len())
			}
		}
		eff.duration += e.store.WriteTime(total)
		eff.extWriteBytes += total
	}
	return eff
}

// sortedNodes returns live node states in node-ID order (deterministic).
func (e *Engine) sortedNodes() []*nodeState {
	out := make([]*nodeState, 0, len(e.nodes))
	for _, ns := range e.nodes {
		out = append(out, ns)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].node.ID < out[j].node.ID })
	return out
}
