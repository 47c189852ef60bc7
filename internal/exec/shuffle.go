package exec

import (
	"fmt"

	"flint/internal/rdd"
)

// shuffleID identifies one ShuffleDep within the engine.
type shuffleID int

// mapOutput is the result of one shuffle map task: the bucketed rows of
// one parent partition, resident on the node that ran the task. Buckets
// are ColBatches — typed columns when the dep is Columnar and carry is
// enabled, tail-only wraps of the classic []Row buckets otherwise — so
// the tracker stores and serves columns without ever boxing.
type mapOutput struct {
	nodeID  int
	buckets []*rdd.ColBatch
	sizes   []int64
	total   int64 // sum of sizes, precomputed for node accounting
}

// shuffleState tracks one ShuffleDep's map outputs.
type shuffleState struct {
	dep     *rdd.ShuffleDep
	outputs []*mapOutput // indexed by map partition; nil if missing
	// missing counts the nil outputs, maintained by putOutput, dropNode
	// and dropDepNode so available() is O(1) on every lineage step.
	missing int
	// ver counts changes to outputs: a map stage's needed partitions
	// (missingParts) are unchanged while ver is.
	ver uint64
}

// available reports whether every map output is present.
func (s *shuffleState) available() bool { return s.missing == 0 }

// missingParts appends the map partitions whose outputs are absent to
// dst and returns it.
func (s *shuffleState) missingParts(dst []int) []int {
	for i, o := range s.outputs {
		if o == nil {
			dst = append(dst, i)
		}
	}
	return dst
}

// shuffleTracker is the engine-wide map-output registry (Spark's
// MapOutputTracker) plus the storage of bucketed shuffle data, which in
// Spark lives on each worker's local disk and is lost with the worker.
type shuffleTracker struct {
	ids    map[*rdd.ShuffleDep]shuffleID
	states []*shuffleState
	// nodeTotals caches the shuffle bytes resident per node, maintained
	// incrementally by putOutput/dropNode so nodeBytes — called for every
	// node on every system-checkpoint tick — never rescans every output.
	nodeTotals map[int]int64
	// flips lists, in order, the deps whose available() changed since
	// the engine last drained it (takeFlips).
	flips []shuffleID
}

func newShuffleTracker() *shuffleTracker {
	return &shuffleTracker{
		ids:        make(map[*rdd.ShuffleDep]shuffleID),
		nodeTotals: make(map[int]int64),
	}
}

// register returns the shuffleID for dep, creating state on first use.
//
//lint:effects allocates tracker state for a dep
func (t *shuffleTracker) register(dep *rdd.ShuffleDep) shuffleID {
	if id, ok := t.ids[dep]; ok {
		return id
	}
	id := shuffleID(len(t.states))
	t.ids[dep] = id
	t.states = append(t.states, &shuffleState{
		dep:     dep,
		outputs: make([]*mapOutput, dep.P.NumParts),
		missing: dep.P.NumParts,
	})
	return id
}

// setOutput replaces map output i of st with o (either may be nil),
// keeping the missing count, the version and the flip log current.
func (t *shuffleTracker) setOutput(st *shuffleState, i int, o *mapOutput) {
	old := st.outputs[i]
	st.outputs[i] = o
	st.ver++
	was := st.available()
	if old == nil {
		st.missing--
	}
	if o == nil {
		st.missing++
	}
	if st.available() != was {
		t.flips = append(t.flips, t.ids[st.dep])
	}
}

// takeFlips returns the deps whose availability changed since the last
// call, and resets the log.
func (t *shuffleTracker) takeFlips() []shuffleID {
	f := t.flips
	t.flips = t.flips[:0]
	return f
}

// state returns the tracker state for dep, registering it if needed.
//
//lint:effects registers the dep when missing; workers use lookup
func (t *shuffleTracker) state(dep *rdd.ShuffleDep) *shuffleState {
	return t.states[t.register(dep)]
}

// lookup returns the tracker state for dep without registering it, or
// nil if dep has never been seen. Safe for concurrent readers: it never
// mutates the tracker (registration happens only on the simulation
// thread, never during a dispatch round's worker fan-out).
func (t *shuffleTracker) lookup(dep *rdd.ShuffleDep) *shuffleState {
	if id, ok := t.ids[dep]; ok {
		return t.states[id]
	}
	return nil
}

// putOutput registers a completed map task's buckets, replacing any
// previous output for the same map partition (recomputation after a
// revocation) and keeping the per-node byte totals current.
//
//lint:effects records map outputs and node byte totals
func (t *shuffleTracker) putOutput(dep *rdd.ShuffleDep, mapPart, nodeID int, buckets []*rdd.ColBatch) {
	st := t.state(dep)
	if old := st.outputs[mapPart]; old != nil {
		t.nodeTotals[old.nodeID] -= old.total
	}
	sizes := make([]int64, len(buckets))
	var total int64
	for i, b := range buckets {
		sizes[i] = dep.P.SizeOfRows(b.Len())
		total += sizes[i]
	}
	t.setOutput(st, mapPart, &mapOutput{nodeID: nodeID, buckets: buckets, sizes: sizes, total: total})
	t.nodeTotals[nodeID] += total
}

// dropDepNode discards one dep's map outputs resident on nodeID,
// simulating shuffle data lost behind an unrecoverable fetch failure
// (chaos injection). Unlike dropNode, the node itself stays alive and
// keeps its other shuffle data.
//
//lint:effects discards a node's map outputs for one dep
func (t *shuffleTracker) dropDepNode(dep *rdd.ShuffleDep, nodeID int) {
	st := t.lookup(dep)
	if st == nil {
		return
	}
	for i, o := range st.outputs {
		if o != nil && o.nodeID == nodeID {
			t.setOutput(st, i, nil)
			t.nodeTotals[nodeID] -= o.total
		}
	}
}

// audit recomputes the per-node byte totals and the per-dep missing
// counts from the registered outputs and compares them with the
// incrementally maintained ones, returning the first divergence. Ground
// truth for the chaos invariant checkers.
func (t *shuffleTracker) audit() error {
	want := make(map[int]int64)
	for _, st := range t.states {
		missing := 0
		for _, o := range st.outputs {
			if o == nil {
				missing++
			}
		}
		if missing != st.missing {
			return fmt.Errorf("dep %s: missing count %d != recounted %d", st.dep.P, st.missing, missing)
		}
		for i, o := range st.outputs {
			if o == nil {
				continue
			}
			var sum int64
			for _, s := range o.sizes {
				sum += s
			}
			if sum != o.total {
				return fmt.Errorf("output %s[%d]: total %d != sum(sizes) %d", st.dep.P, i, o.total, sum)
			}
			want[o.nodeID] += o.total
		}
	}
	for id, got := range t.nodeTotals {
		if got != want[id] {
			return fmt.Errorf("node %d: cached total %d != recomputed %d", id, got, want[id])
		}
	}
	for id, w := range want {
		if t.nodeTotals[id] != w {
			return fmt.Errorf("node %d: cached total %d != recomputed %d", id, t.nodeTotals[id], w)
		}
	}
	return nil
}

// dropNode discards every map output resident on a revoked node.
//
//lint:effects discards every map output on a node
func (t *shuffleTracker) dropNode(nodeID int) {
	for _, st := range t.states {
		for i, o := range st.outputs {
			if o != nil && o.nodeID == nodeID {
				t.setOutput(st, i, nil)
			}
		}
	}
	delete(t.nodeTotals, nodeID)
}

// fetchResult is the outcome of a reduce-side fetch: a view of the
// reduce partition's bucket batches in map-partition order, with the
// total row count precomputed. The segments alias the tracker's stored
// buckets — shuffle data is immutable once registered — so a fetch
// itself copies nothing; callers that need one contiguous batch call
// materialize exactly once.
type fetchResult struct {
	segs        []*rdd.ColBatch // non-empty buckets, map-partition order
	total       int             // rows across segs
	localBytes  int64
	remoteBytes int64
	missing     []int // map partitions that were unavailable
}

// materialize concatenates the segments into one batch. A single-segment
// fetch — common for narrow reduce fan-ins, and previously the one case
// the []Row plane still special-cased — returns the stored bucket
// directly, whatever its layout (copy-free; column and tail capacities
// are pinned so appends cannot clobber tracker state). Multi-segment
// fetches of a shared layout concatenate column-to-column without
// boxing (rdd.ConcatBatches). Returns an empty batch if the fetch had
// missing outputs, so egress boxing still yields a nil row slice.
func (r fetchResult) materialize() *rdd.ColBatch {
	if len(r.missing) > 0 || r.total == 0 {
		return rdd.WrapRows(nil)
	}
	return rdd.ConcatBatches(r.segs, r.total)
}

// fetch gathers bucket `reducePart` from every map output of dep, for a
// reader on readerNode. Segments are kept in map-partition order so
// recomputation is deterministic. If any output is missing the fetch
// fails and the caller triggers parent-stage resubmission.
func (t *shuffleTracker) fetch(dep *rdd.ShuffleDep, reducePart, readerNode int) fetchResult {
	st := t.lookup(dep)
	var res fetchResult
	if st == nil {
		// A reduce task only dispatches after its dep was registered by
		// trySubmit; defensively treat an unknown dep as all-missing.
		for i := 0; i < dep.P.NumParts; i++ {
			res.missing = append(res.missing, i)
		}
		return res
	}
	for i, o := range st.outputs {
		if o == nil {
			res.missing = append(res.missing, i)
			continue
		}
		if b := o.buckets[reducePart]; b.Len() > 0 {
			res.segs = append(res.segs, b)
			res.total += b.Len()
		}
		if o.nodeID == readerNode {
			res.localBytes += o.sizes[reducePart]
		} else {
			res.remoteBytes += o.sizes[reducePart]
		}
	}
	if len(res.missing) > 0 {
		res.segs = nil
		res.total = 0
	}
	return res
}

// nodeBytes returns the total shuffle bytes resident on a node (used by
// the system-level checkpointing baseline, which must persist shuffle
// buffers too). O(1): the totals are maintained by putOutput/dropNode.
func (t *shuffleTracker) nodeBytes(nodeID int) int64 {
	return t.nodeTotals[nodeID]
}
