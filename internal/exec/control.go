package exec

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"flint/internal/dfs"
	"flint/internal/obs"
	"flint/internal/rdd"
)

// Scheduler control plane (see DESIGN.md, "Scheduler control plane").
//
// pump re-derives the runnable work from ground truth on every state
// change. Doing that literally — walking the narrow lineage of every
// needed partition of every stage on every pump — makes the scheduler
// cost quadratic in job size, so the derivation is incremental:
//
//   - holders is a block-location index (live cache holders per block),
//     maintained from every cache insertion and removal and from
//     revocation, so "is block k cached anywhere" is one map lookup.
//   - Each stage memoizes the walk of each of its partitions (partWalk):
//     the set of ShuffleDeps it is blocked on. Every walk registers a
//     walkRef with each block whose presence it read and each dep whose
//     availability it read; a change to one of those invalidates exactly
//     the walks that read it. Store presence arrives through the store's
//     presence log, dep availability through the shuffle tracker's flip
//     log, both drained at every stage visit.
//   - Each stage also keeps the sorted union of its partitions' blocked
//     deps (the recursion list). A stage none of whose walks, in-flight
//     set, delivered set or map outputs changed is not replanned at all.
//
// Scheduling decisions are unchanged: a stage that is replanned is
// walked in the same partition order and recursion order as the full
// derivation, so the queue, and every trace, is byte-identical.
// missingShuffles is kept as the reference the memo must agree with:
// Engine.Audit compares them, and engine tests cross-check every pump.

// partWalk is the memoized lineage walk of one partition of a stage.
type partWalk struct {
	deps  []*rdd.ShuffleDep // deps the partition is blocked on; empty = runnable
	gen   uint32            // bumped by every walk; orphans older walkRefs
	valid bool              // false once something the walk read changed
	// volatile marks a walk that read a store answer from the read-fault
	// hook: such answers depend on virtual time and are only reused at
	// the instant at which they were read.
	volatile bool
	at       float64 // virtual instant of the walk
}

// walkRef names the walk of partition part of stage s at generation gen.
type walkRef struct {
	s    *stage
	part int
	gen  uint32
}

// live reports whether the referenced walk is still the stage's current,
// valid entry (finished jobs drop their stages' walks).
func (r walkRef) live() bool {
	if r.part >= len(r.s.walks) {
		return false
	}
	w := &r.s.walks[r.part]
	return w.valid && w.gen == r.gen
}

// addRef appends r to refs, skipping an immediate duplicate and
// compacting away dead refs before the slice would grow.
func addRef(refs []walkRef, r walkRef) []walkRef {
	n := len(refs)
	if n > 0 && refs[n-1] == r {
		return refs
	}
	if n >= 8 && n == cap(refs) {
		live := refs[:0]
		for _, x := range refs {
			if x.live() {
				live = append(live, x)
			}
		}
		clear(refs[len(live):])
		refs = live
	}
	return append(refs, r)
}

// invalidate marks every live walk in refs stale and its stage dirty.
func invalidate(refs []walkRef) {
	for _, r := range refs {
		if r.live() {
			r.s.walks[r.part].valid = false
			r.s.dirty = true
		}
	}
}

// notePresence maintains the block-location index from a node cache's
// insertions and removals, invalidating the walks that read block k
// when its cluster-wide presence flips.
func (e *Engine) notePresence(k blockKey, present bool) {
	n := e.holders[k]
	if present {
		n++
	} else {
		n--
	}
	if n > 0 {
		e.holders[k] = n
	} else {
		delete(e.holders, k)
	}
	if (present && n == 1) || (!present && n == 0) {
		e.blockChanged(k)
	}
}

// blockChanged invalidates the walks that read block k's presence.
func (e *Engine) blockChanged(k blockKey) {
	if refs, ok := e.blockWatch[k]; ok {
		delete(e.blockWatch, k)
		invalidate(refs)
	}
}

// syncControl applies the store and shuffle-tracker changes logged since
// the last call to the memoized walks.
func (e *Engine) syncControl() {
	keys, next, complete := e.store.Changes(e.storeSeq, e.changeBuf[:0])
	e.storeSeq = next
	for _, key := range keys {
		e.storeChanged(key)
	}
	clear(keys)
	e.changeBuf = keys
	if !complete {
		// The log lost track: every store answer any walk read is suspect.
		// Map order is irrelevant here: invalidation commutes.
		for _, refs := range e.blockWatch {
			invalidate(refs)
		}
		clear(e.blockWatch)
	}
	for _, id := range e.shuffles.takeFlips() {
		if refs, ok := e.depWatch[id]; ok {
			delete(e.depWatch, id)
			invalidate(refs)
		}
	}
}

// storeChanged handles one presence-log entry: a checkpoint or an
// externalized cache copy appeared or disappeared.
func (e *Engine) storeChanged(key string) {
	if k, ok := parsePartKey(key, "rdd/"); ok {
		e.blockChanged(k)
	} else if k, ok := parsePartKey(key, fnCacheDir); ok {
		e.blockChanged(k)
	}
}

// parsePartKey parses a <dir><id>/part/<part> key (dfs.AppendPartKey).
func parsePartKey(key, dir string) (blockKey, bool) {
	rest, ok := strings.CutPrefix(key, dir)
	if !ok {
		return blockKey{}, false
	}
	id, part, ok := strings.Cut(rest, "/part/")
	if !ok {
		return blockKey{}, false
	}
	r, err1 := strconv.Atoi(id)
	p, err2 := strconv.Atoi(part)
	return blockKey{rddID: r, part: p}, err1 == nil && err2 == nil
}

// blockPresent reports whether block k is materialized where a task can
// read it instead of recomputing it: a live node's cache, the checkpoint
// store, or (function backend) the externalized cache. It does not
// allocate. volatile reports a store answer from the read-fault hook.
func (e *Engine) blockPresent(k blockKey) (ok, volatile bool) {
	if e.holders[k] > 0 {
		return true, false
	}
	return e.durable(k)
}

// durable reports whether block k has a readable durable copy: a
// checkpoint or, on a function backend, an externalized cache copy. It
// does not allocate; volatile reports an answer from the read-fault hook.
func (e *Engine) durable(k blockKey) (ok, volatile bool) {
	var buf [48]byte
	ok, volatile = e.store.Probe(dfs.AppendKey(buf[:0], k.rddID, k.part))
	if ok || !e.fnMode {
		return ok, volatile
	}
	ok, v := e.store.Probe(dfs.AppendPartKey(buf[:0], fnCacheDir, k.rddID, k.part))
	return ok, volatile || v
}

// trySubmit enqueues the runnable needed partitions of s and recursively
// submits the parent map stages for partitions blocked on missing shuffle
// outputs. Only a stage whose inputs changed is replanned.
func (e *Engine) trySubmit(s *stage, visited map[*stage]bool) {
	if visited[s] {
		return
	}
	visited[s] = true
	e.syncControl()
	if now := e.clock.Now(); !e.stageClean(s, now) {
		e.replan(s, now)
	} else if e.checkMemo {
		e.crossCheck(s)
	}
	for _, dep := range s.blocked {
		e.trySubmit(s.job.mapStageFor(dep, e), visited)
	}
}

// stageClean reports whether s's last plan still holds: none of its
// walks was invalidated, its in-flight and delivered sets and its dep's
// map outputs are unchanged, and no walk it relies on read a read-fault
// answer at an earlier instant.
func (e *Engine) stageClean(s *stage, now float64) bool {
	switch {
	case s.walks == nil || s.dirty:
		return false
	case s.volatile && s.plannedAt != now:
		return false
	case s.isResult():
		return true
	default:
		return e.shuffles.state(s.dep).ver == s.outVer
	}
}

// replan recomputes s's plan: for each needed partition not in flight,
// in partition order, it reuses the memoized walk or re-walks an
// invalidated one, enqueues the runnable partitions, and collects the
// blocked deps in recursion order.
func (e *Engine) replan(s *stage, now float64) {
	if s.walks == nil {
		s.walks = make([]partWalk, s.numTasks)
	}
	e.needBuf = e.stageNeededParts(s, e.needBuf[:0])
	s.blocked = s.blocked[:0]
	s.volatile = false
	enqueued := false
	for _, p := range e.needBuf {
		if s.inFlight[p] {
			continue
		}
		w := &s.walks[p]
		if !w.valid || (w.volatile && w.at != now) {
			e.walkPart(s, p, now)
		}
		if e.checkMemo {
			e.mustMatch(s, p)
		}
		if len(w.deps) == 0 {
			e.enqueueCompute(s, p)
			enqueued = true
			continue
		}
		s.volatile = s.volatile || w.volatile
		for _, dep := range w.deps {
			if !slices.Contains(s.blocked, dep) {
				s.blocked = append(s.blocked, dep)
			}
		}
	}
	s.dirty = false
	s.plannedAt = now
	if !s.isResult() {
		s.outVer = e.shuffles.state(s.dep).ver
	}
	// Deterministic recursion order.
	slices.SortFunc(s.blocked, func(a, b *rdd.ShuffleDep) int {
		return int(e.shuffles.register(a)) - int(e.shuffles.register(b))
	})
	if e.checkMemo {
		e.crossCheck(s)
	}
	if enqueued && !s.active {
		s.active = true
		s.activeSince = now
		e.obs.Emit(obs.Event{
			Type: obs.EvStageSubmit, Time: s.activeSince,
			Job: s.job.id, Stage: s.id, RDD: s.out.ID,
		})
		if e.policy != nil {
			e.policy.NotifyStageActive(s.out, now)
		}
	}
}

// walkPart walks the lineage of partition p of s like missingShuffles,
// memoizing the blocked deps in s.walks[p] and registering the entry
// with every block and dep the walk read.
func (e *Engine) walkPart(s *stage, p int, now float64) {
	w := &s.walks[p]
	w.gen++
	w.deps = w.deps[:0]
	w.valid, w.volatile, w.at = true, false, now
	e.walkSeen = e.walkSeen[:0]
	e.walkStep(s.out, p, w, walkRef{s: s, part: p, gen: w.gen})
}

// walkStep is one step of walkPart; it visits the same blocks in the
// same order as missingShuffles.
func (e *Engine) walkStep(r *rdd.RDD, p int, w *partWalk, ref walkRef) {
	k := blockKey{rddID: r.ID, part: p}
	if slices.Contains(e.walkSeen, k) {
		return
	}
	e.walkSeen = append(e.walkSeen, k)
	e.lineageProbes++
	e.blockWatch[k] = addRef(e.blockWatch[k], ref)
	ok, volatile := e.blockPresent(k)
	w.volatile = w.volatile || volatile
	if ok || r.IsSource() {
		return
	}
	for _, d := range r.Deps {
		switch dep := d.(type) {
		case *rdd.NarrowDep:
			if pp := dep.ParentPart(p); pp >= 0 {
				e.walkStep(dep.P, pp, w, ref)
			}
		case *rdd.ShuffleDep:
			id := e.shuffles.register(dep)
			e.depWatch[id] = addRef(e.depWatch[id], ref)
			if !e.shuffles.states[id].available() && !slices.Contains(w.deps, dep) {
				w.deps = append(w.deps, dep)
			}
		}
	}
}

// missingShuffles is the reference walk the memo must agree with. It
// walks the pipelined (narrow) lineage of partition (r, p) exactly as
// the task resolver will, and records in acc every ShuffleDep whose map
// outputs are required but incomplete. The walk stops wherever data is
// already materialized — in a live node's cache or in the checkpoint
// store — which is how checkpointing truncates recomputation (paper
// Figure 1b). It mutates nothing, not even the tracker's registry.
func (e *Engine) missingShuffles(r *rdd.RDD, p int, acc map[*rdd.ShuffleDep]bool, seen map[blockKey]bool) {
	k := blockKey{rddID: r.ID, part: p}
	if seen[k] {
		return
	}
	seen[k] = true
	if ok, _ := e.blockPresent(k); ok || r.IsSource() {
		return
	}
	for _, d := range r.Deps {
		switch dep := d.(type) {
		case *rdd.NarrowDep:
			if pp := dep.ParentPart(p); pp >= 0 {
				e.missingShuffles(dep.P, pp, acc, seen)
			}
		case *rdd.ShuffleDep:
			if st := e.shuffles.lookup(dep); (st == nil && dep.P.NumParts > 0) || (st != nil && !st.available()) {
				acc[dep] = true
			}
		}
	}
}

// stageNeededParts appends to dst the partitions a stage must
// (re)compute right now: for a map stage, the map partitions whose
// shuffle outputs are missing; for a result stage, the partitions not
// yet delivered to the driver.
func (e *Engine) stageNeededParts(s *stage, dst []int) []int {
	if s.isResult() {
		for p := 0; p < s.numTasks; p++ {
			if !s.job.delivered[p] {
				dst = append(dst, p)
			}
		}
		return dst
	}
	return e.shuffles.state(s.dep).missingParts(dst)
}

// checkWalk compares the memoized walk of partition p of s with a fresh
// reference walk.
func (e *Engine) checkWalk(s *stage, p int) (map[*rdd.ShuffleDep]bool, error) {
	want := make(map[*rdd.ShuffleDep]bool)
	e.missingShuffles(s.out, p, want, make(map[blockKey]bool))
	w := &s.walks[p]
	if !sameDeps(w.deps, want) {
		return want, fmt.Errorf("stage %d (%s) part %d: memoized walk blocked on %d deps, fresh walk on %d",
			s.id, s.out, p, len(w.deps), len(want))
	}
	return want, nil
}

// sameDeps reports whether the duplicate-free deps hold exactly set.
func sameDeps(deps []*rdd.ShuffleDep, set map[*rdd.ShuffleDep]bool) bool {
	if len(deps) != len(set) {
		return false
	}
	for _, dep := range deps {
		if !set[dep] {
			return false
		}
	}
	return true
}

// mustMatch is the test-mode check of one memoized walk, made before
// replan acts on it: it must equal a fresh reference walk.
func (e *Engine) mustMatch(s *stage, p int) map[*rdd.ShuffleDep]bool {
	want, err := e.checkWalk(s, p)
	if err != nil {
		panic("exec: control-plane memo diverged: " + err.Error())
	}
	return want
}

// crossCheck is the test-mode check of a stage's plan, run on every
// stage visit: every needed partition not in flight must be blocked,
// its memoized walk must equal a fresh reference walk, and the
// recursion list must be the union of their deps. A difference panics.
func (e *Engine) crossCheck(s *stage) {
	union := make(map[*rdd.ShuffleDep]bool)
	for _, p := range e.stageNeededParts(s, nil) {
		if s.inFlight[p] {
			continue
		}
		if !s.walks[p].valid {
			panic(fmt.Sprintf("exec: control-plane memo diverged: stage %d part %d pending without a valid walk", s.id, p))
		}
		want := e.mustMatch(s, p)
		if len(want) == 0 {
			panic(fmt.Sprintf("exec: control-plane memo diverged: stage %d part %d runnable but not enqueued", s.id, p))
		}
		for dep := range want {
			union[dep] = true
		}
	}
	if !sameDeps(s.blocked, union) {
		panic(fmt.Sprintf("exec: control-plane memo diverged: stage %d recursion list has %d deps, fresh walks %d",
			s.id, len(s.blocked), len(union)))
	}
}

// auditControl cross-checks the control plane against ground truth: the
// block-location index against a scan of the live node caches, and
// every live memoized walk of an active job against a fresh reference
// walk. Walks that read a read-fault answer are skipped: the hook's
// answer belongs to the instant it was read.
func (e *Engine) auditControl() error {
	scan := make(map[blockKey]int)
	for _, ns := range e.nodes {
		for k := range ns.cache.blocks {
			scan[k]++
		}
	}
	if !maps.Equal(scan, e.holders) {
		return fmt.Errorf("location index holds %d blocks, a scan of the live caches %d, or their holder counts differ",
			len(e.holders), len(scan))
	}
	e.syncControl()
	for _, j := range e.activeJobs {
		stages := []*stage{j.resultStage}
		for _, s := range j.mapStages {
			stages = append(stages, s)
		}
		sort.Slice(stages, func(a, b int) bool { return stages[a].id < stages[b].id })
		for _, s := range stages {
			for p := range s.walks {
				if w := &s.walks[p]; !w.valid || w.volatile {
					continue
				}
				if _, err := e.checkWalk(s, p); err != nil {
					return fmt.Errorf("walk memo: %w", err)
				}
			}
		}
	}
	return nil
}
