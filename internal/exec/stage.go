package exec

import (
	"flint/internal/rdd"
)

// Action selects what a job does with the target RDD's partitions.
type Action int

const (
	// ActionCollect ships every partition's rows to the driver.
	ActionCollect Action = iota
	// ActionCount ships only per-partition counts.
	ActionCount
	// ActionMaterialize computes (and caches/checkpoints per policy)
	// without returning rows — Spark's foreach-style actions.
	ActionMaterialize
)

// Result is what a finished job delivers.
type Result struct {
	Rows  []rdd.Row // ActionCollect: rows in partition order
	Count int64     // ActionCount: total row count
	Start float64   // submission time
	End   float64   // completion time
	Stats JobStats
}

// Latency returns the job's response time in virtual seconds.
func (r *Result) Latency() float64 { return r.End - r.Start }

// JobStats counts scheduler activity for one job.
type JobStats struct {
	TasksLaunched        int
	TasksKilled          int
	FetchFailures        int
	CheckpointTasks      int
	CheckpointBytes      int64
	CheckpointSlotTime   float64
	RecomputedPartitions int
	ShuffleBytesRemote   int64
	ShuffleBytesLocal    int64
	CacheHits            int
	CacheMisses          int
	CheckpointReads      int
}

// job is one submitted action over a target RDD.
type job struct {
	id          int
	target      *rdd.RDD
	action      Action
	cb          func(*Result)
	resultStage *stage
	mapStages   map[*rdd.ShuffleDep]*stage
	results     [][]rdd.Row
	delivered   []bool
	nDelivered  int
	finished    bool
	start       float64
	stats       JobStats
}

// stage computes the partitions of one RDD: either the map side of a
// shuffle (dep != nil; it computes dep.P and buckets the rows) or the
// job's result stage (dep == nil; it computes the job target and applies
// the action).
type stage struct {
	id          int
	job         *job
	dep         *rdd.ShuffleDep
	out         *rdd.RDD
	numTasks    int
	inFlight    map[int]bool // partitions currently pending or running
	active      bool         // has had tasks enqueued and not yet gone idle
	activeSince float64      // when the current active interval began
	// hint bounds how many (RDD, partition) blocks one task of this
	// stage can memoize: the narrow-dependency closure of the stage
	// output (task resolution never crosses a shuffle boundary — those
	// inputs arrive via fetch). Set at construction on the simulation
	// thread so worker goroutines only ever read it; it sizes the
	// per-task memo and effect slices.
	hint int

	// Control-plane memo (control.go): walks[p] is the memoized lineage
	// walk of partition p (nil until the first replan); blocked is the
	// recursion list, the sorted union of the blocked deps of the needed
	// partitions, which stays right while the stage is clean.
	walks     []partWalk
	blocked   []*rdd.ShuffleDep
	dirty     bool    // a walk, inFlight or delivered changed since the last replan
	volatile  bool    // blocked rests on read-fault answers read at plannedAt
	plannedAt float64 // virtual instant of the last replan
	outVer    uint64  // map stage: the dep's output version at the last replan
}

func (s *stage) isResult() bool { return s.dep == nil }

func (s *stage) pipeHint() int { return s.hint }

// narrowClosureSize counts the RDDs reachable from r through narrow
// dependencies only, r included.
func narrowClosureSize(r *rdd.RDD) int {
	seen := make(map[*rdd.RDD]bool)
	var walk func(*rdd.RDD)
	walk = func(r *rdd.RDD) {
		if seen[r] {
			return
		}
		seen[r] = true
		for _, d := range r.Deps {
			if nd, ok := d.(*rdd.NarrowDep); ok {
				walk(nd.P)
			}
		}
	}
	walk(r)
	return len(seen)
}

// mapStageFor returns (creating if needed) the job's map stage for dep.
func (j *job) mapStageFor(dep *rdd.ShuffleDep, e *Engine) *stage {
	if s, ok := j.mapStages[dep]; ok {
		return s
	}
	e.nextStageID++
	s := &stage{
		id: e.nextStageID, job: j, dep: dep, out: dep.P,
		numTasks: dep.P.NumParts, inFlight: make(map[int]bool),
		hint: narrowClosureSize(dep.P),
	}
	j.mapStages[dep] = s
	return s
}
