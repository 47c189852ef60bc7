// Package rdd implements the data model of a Spark-like engine: Resilient
// Distributed Datasets — immutable, partitioned collections defined either
// by a deterministic source generator or by a transformation of parent
// RDDs, with the transformation recorded in a lineage DAG.
//
// This package is deliberately pure: it defines the graph, the
// transformations (map, filter, flatMap, union, and the shuffle family —
// reduceByKey, groupByKey, join, distinct), and lineage traversal. The
// scheduler that executes a graph on a simulated transient cluster —
// including caching, recomputation after revocations, shuffles, and
// checkpointing — lives in internal/exec.
//
// Rows are dynamically typed (Row = any); keyed operations use the KV
// pair type and require comparable, hashable keys (ints, strings, floats,
// bools, or small comparable structs of those).
//
// User code attached to the graph — Gen, Fn, ShuffleDep.Partitioner and
// ShuffleDep.Combine — must be pure per partition: deterministic in its
// arguments, free of shared mutable state, and side-effect free. The
// engine relies on this twice over: recomputation after a revocation
// replays the same function and must reproduce the same rows, and tasks
// of one dispatch round execute concurrently on a worker pool (see
// internal/exec/workers.go), so two partitions' functions may run at the
// same time.
package rdd

import (
	"fmt"
)

// Row is a single element of a dataset.
type Row = any

// KV is the key-value pair type understood by the shuffle operators.
type KV struct {
	K Row
	V Row
}

// Dependency is an edge in the lineage DAG.
type Dependency interface {
	Parent() *RDD
}

// NarrowDep is a narrow dependency: child partition p is computed from
// at most one parent partition, PartMap(p). Identity mapping when
// PartMap is nil. A PartMap returning -1 means the dependency delivers
// no input for that child partition (used by Union and Coalesce, whose
// output partitions each draw from only one of several declared deps);
// the compute function then receives a nil slice for it.
type NarrowDep struct {
	P *RDD
	// PartMap maps a child partition index to the parent partition index
	// it consumes, or -1 for "no input". nil means identity.
	PartMap func(childPart int) int
}

// Parent returns the dependency's parent RDD.
func (d *NarrowDep) Parent() *RDD { return d.P }

// ParentPart resolves the parent partition feeding child partition p,
// or -1 if this dependency feeds nothing into p.
func (d *NarrowDep) ParentPart(p int) int {
	if d.PartMap == nil {
		return p
	}
	return d.PartMap(p)
}

// ShuffleDep is a wide dependency: every child partition depends on every
// parent partition. Map-side, each parent partition's rows are split into
// NumOut buckets by Partitioner (and optionally pre-aggregated by
// Combine); reduce-side, child partition p concatenates bucket p from all
// parent partitions.
type ShuffleDep struct {
	P      *RDD
	NumOut int
	// Partitioner assigns a row to an output bucket. nil means hash the
	// row's KV key. Must be a pure function of the row: map tasks of one
	// dispatch round bucket their partitions concurrently.
	Partitioner func(r Row, numOut int) int
	// Combine optionally pre-aggregates one bucket's rows map-side
	// (Spark's map-side combine for reduceByKey). Same purity contract
	// as Partitioner; it must not mutate the input slice.
	Combine func(rows []Row) []Row

	// Columnar marks the dependency as batch-aware: the engine buckets
	// its map outputs as ColBatches — typed scatter via BucketBatch,
	// each bucket extracted (or combined via CombineCol) into columns —
	// instead of []Row. The canned keyed operators set it; custom
	// shuffles default to the row plane. Requires Partitioner == nil: a
	// custom partitioner sees boxed rows, so its batches stay on the row
	// plane.
	Columnar bool

	// CombineCol is the batch form of Combine, which the engine applies
	// to each column bucket of a Columnar dependency. It must be
	// value-equivalent to Combine over the boxed rows (same rows, same
	// order). Both are set: EvalLocal, the engine's reference, buckets
	// rows and uses Combine.
	CombineCol func(b *ColBatch) *ColBatch
}

// Parent returns the dependency's parent RDD.
func (d *ShuffleDep) Parent() *RDD { return d.P }

// Bucket assigns row r to an output bucket.
func (d *ShuffleDep) Bucket(r Row) int {
	if d.Partitioner != nil {
		return d.Partitioner(r, d.NumOut)
	}
	kv, ok := r.(KV)
	if !ok {
		panic(fmt.Sprintf("rdd: shuffle input row %T is not a KV", r))
	}
	return PartitionOf(kv.K, d.NumOut)
}

// RDD is one dataset in the lineage graph.
type RDD struct {
	ID       int
	Name     string
	NumParts int
	Deps     []Dependency

	// Gen generates a source partition (only for RDDs with no Deps).
	// It must be deterministic in part and safe to call concurrently for
	// different partitions: lineage recovery replays it, and the engine's
	// worker pool may generate several partitions at once.
	Gen func(part int) []Row

	// Fn computes a partition from its inputs: inputs[i] holds the rows
	// delivered by Deps[i] for this partition (the mapped parent
	// partition for narrow deps; the concatenated shuffle bucket for
	// shuffle deps). Like Gen it must be pure: deterministic in its
	// arguments, no shared mutable state, safe under concurrent calls
	// for different partitions. It must not retain or mutate the input
	// slices, which may be shared with other concurrently running tasks.
	Fn func(part int, inputs [][]Row) []Row

	// ColFn is the batch form of Fn, set by operators whose body can
	// consume and produce ColBatches without boxing (the keyed shuffle
	// operators). When set, the engine calls it instead of Fn; it must
	// be value-equivalent — ColFn(p, ins).Rows() equals Fn(p, rows(ins))
	// row for row. Fn is always set too: the local evaluator uses it.
	ColFn func(part int, inputs []*ColBatch) *ColBatch

	// Weight scales the virtual compute cost of producing this RDD
	// (seconds per MB of input processed, relative to the engine's
	// base rate). Heavier transformations (e.g. ALS factor updates)
	// set Weight > 1.
	Weight float64

	// RowBytes estimates the serialized size of one output row, for cache
	// accounting, shuffle volumes, and checkpoint sizes.
	RowBytes int

	// Cached requests that computed partitions be kept in the node-local
	// RDD cache (Spark's persist()).
	Cached bool

	// CheckpointRequested mirrors Spark's explicit checkpoint() call: the
	// engine durably writes every partition of this RDD as it
	// materializes, independent of the automated policy. Flint's whole
	// point is that programmers should not need this (§3: "Flint
	// automates the use of this checkpointing mechanism"), but the
	// manual hook is part of the Spark-compatible surface.
	CheckpointRequested bool

	ctx *Context
}

// Context builds RDD graphs and tracks every RDD created through it, which
// the fault-tolerance manager uses for lineage-frontier bookkeeping.
type Context struct {
	nextID       int
	rdds         []*RDD
	defaultParts int
}

// NewContext returns a builder whose transformations default to
// defaultParts partitions.
func NewContext(defaultParts int) *Context {
	if defaultParts <= 0 {
		defaultParts = 8
	}
	return &Context{defaultParts: defaultParts}
}

// DefaultParallelism returns the context's default partition count.
func (c *Context) DefaultParallelism() int { return c.defaultParts }

// All returns every RDD created through this context, in creation order.
func (c *Context) All() []*RDD { return c.rdds }

// register assigns an ID and records the RDD.
func (c *Context) register(r *RDD) *RDD {
	c.nextID++
	r.ID = c.nextID
	r.ctx = c
	if r.Weight == 0 {
		r.Weight = 1
	}
	c.rdds = append(c.rdds, r)
	return r
}

// Parallelize creates a source RDD whose partitions are produced by gen.
// gen must be deterministic: recomputation after a revocation replays it.
func (c *Context) Parallelize(name string, parts int, rowBytes int, gen func(part int) []Row) *RDD {
	if parts <= 0 {
		parts = c.defaultParts
	}
	if gen == nil {
		panic("rdd: Parallelize with nil generator")
	}
	return c.register(&RDD{Name: name, NumParts: parts, Gen: gen, RowBytes: rowBytesOr(rowBytes)})
}

// FromRows creates a source RDD over a fixed in-memory slice, split
// round-robin into parts partitions.
func (c *Context) FromRows(name string, parts int, rowBytes int, rows []Row) *RDD {
	if parts <= 0 {
		parts = c.defaultParts
	}
	return c.Parallelize(name, parts, rowBytes, func(part int) []Row {
		var out []Row
		for i := part; i < len(rows); i += parts {
			out = append(out, rows[i])
		}
		return out
	})
}

func rowBytesOr(b int) int {
	if b <= 0 {
		return 100
	}
	return b
}

// NewShuffleRDD registers a custom wide-dependency RDD. Driver-level
// operators that need bespoke partitioners — range partitioning for
// sortByKey, for instance — build their shuffle with this instead of the
// canned operators. dep.NumOut must equal parts.
func (c *Context) NewShuffleRDD(name string, parts, rowBytes int, dep *ShuffleDep, fn func(part int, inputs [][]Row) []Row) *RDD {
	if dep == nil || fn == nil {
		panic("rdd: NewShuffleRDD with nil dependency or function")
	}
	if dep.NumOut != parts {
		panic("rdd: NewShuffleRDD partition count mismatch")
	}
	return c.register(&RDD{
		Name: name, NumParts: parts, RowBytes: rowBytesOr(rowBytes),
		Deps: []Dependency{dep},
		Fn:   fn,
	})
}

// IsSource reports whether the RDD has no lineage parents.
func (r *RDD) IsSource() bool { return len(r.Deps) == 0 }

// IsShuffle reports whether any dependency is wide. The checkpointing
// policy treats shuffle RDDs specially (§3.1.1).
func (r *RDD) IsShuffle() bool {
	for _, d := range r.Deps {
		if _, ok := d.(*ShuffleDep); ok {
			return true
		}
	}
	return false
}

// ShuffleFanIn returns the total number of parent partitions being
// shuffled from (the divisor in the paper's τ/P rule for shuffle RDDs),
// or 0 for non-shuffle RDDs.
func (r *RDD) ShuffleFanIn() int {
	n := 0
	for _, d := range r.Deps {
		if sd, ok := d.(*ShuffleDep); ok {
			n += sd.P.NumParts
		}
	}
	return n
}

// Persist marks the RDD to be kept in the distributed in-memory cache and
// returns it for chaining.
func (r *RDD) Persist() *RDD {
	r.Cached = true
	return r
}

// Checkpoint requests an explicit durable checkpoint of this RDD, like
// Spark's RDD.checkpoint(). Prefer letting Flint's automated policy
// decide; this exists for Spark API parity and for pinning datasets the
// program knows are irreplaceable.
func (r *RDD) Checkpoint() *RDD {
	r.CheckpointRequested = true
	return r
}

// WithWeight overrides the RDD's compute-cost weight and returns it.
func (r *RDD) WithWeight(w float64) *RDD {
	if w > 0 {
		r.Weight = w
	}
	return r
}

// WithRowBytes overrides the estimated row size and returns the RDD.
func (r *RDD) WithRowBytes(b int) *RDD {
	if b > 0 {
		r.RowBytes = b
	}
	return r
}

// String renders a short description.
func (r *RDD) String() string {
	return fmt.Sprintf("RDD#%d(%s, %d parts)", r.ID, r.Name, r.NumParts)
}

// SizeOfRows estimates the serialized bytes of a computed partition.
func (r *RDD) SizeOfRows(n int) int64 { return int64(n) * int64(r.RowBytes) }
