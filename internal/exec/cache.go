package exec

import (
	"container/list"
	"fmt"

	"flint/internal/rdd"
)

// blockKey identifies one RDD partition in the cache.
type blockKey struct {
	rddID int
	part  int
}

// tier records where a block currently lives.
type tier int

const (
	tierMem tier = iota
	tierDisk
)

// block is one cached partition. data is the column-carrying batch form
// (tail-only for row-plane partitions); bytes stays the engine's
// RowBytes-based estimate of the boxed rows — the accounting unit every
// eviction threshold, checkpoint policy and virtual-time charge is
// calibrated in — so cache behaviour is identical whichever layout the
// batch holds.
type block struct {
	key   blockKey
	data  *rdd.ColBatch
	bytes int64
	where tier
	elem  *list.Element // position in the tier's LRU list
}

// blockCache is the per-node RDD storage: a memory tier of capacity
// memCap with LRU eviction to a local-disk tier of capacity diskCap
// (Spark's MEMORY_AND_DISK behaviour); blocks evicted from disk are
// dropped and must be recomputed from lineage. Everything here is lost
// when the node is revoked.
type blockCache struct {
	memCap, diskCap   int64
	memUsed, diskUsed int64
	blocks            map[blockKey]*block
	memLRU, diskLRU   *list.List // front = most recent
	// onEvict, when set, observes capacity evictions: demoted is true for
	// a memory→disk demotion, false when the block left the cache
	// entirely. Overwrites (put of an existing key) and revocation
	// cleanup do not count as evictions.
	onEvict func(k blockKey, bytes int64, demoted bool)
	// onPresence, when set, observes every key entering (true) or
	// leaving (false) blocks; the engine's block-location index is
	// maintained from it.
	onPresence func(k blockKey, present bool)
}

func newBlockCache(memCap, diskCap int64) *blockCache {
	return &blockCache{
		memCap: memCap, diskCap: diskCap,
		blocks: make(map[blockKey]*block),
		memLRU: list.New(), diskLRU: list.New(),
	}
}

// get returns the block and its tier, touching LRU position.
//
//lint:effects touches LRU position; workers use peek and replay with touch at commit
func (c *blockCache) get(k blockKey) (*block, bool) {
	b, ok := c.blocks[k]
	if !ok {
		return nil, false
	}
	if b.where == tierMem {
		c.memLRU.MoveToFront(b.elem)
	} else {
		c.diskLRU.MoveToFront(b.elem)
	}
	return b, true
}

// peek returns the block without touching LRU position. Worker
// goroutines use this so concurrent reads never mutate the lists; the
// access is replayed later with touch.
func (c *blockCache) peek(k blockKey) (*block, bool) {
	b, ok := c.blocks[k]
	return b, ok
}

// touch moves block k to the front of its tier's LRU list, replaying a
// read that happened on a worker. A missing key is a no-op.
//
//lint:effects moves LRU position; the commit-side replay half of peek
func (c *blockCache) touch(k blockKey) {
	b, ok := c.blocks[k]
	if !ok {
		return
	}
	if b.where == tierMem {
		c.memLRU.MoveToFront(b.elem)
	} else {
		c.diskLRU.MoveToFront(b.elem)
	}
}

// has reports presence without touching LRU.
func (c *blockCache) has(k blockKey) bool {
	_, ok := c.blocks[k]
	return ok
}

// put inserts (or refreshes) a block in the memory tier, evicting LRU
// blocks to disk — and from disk entirely — as needed. A block larger
// than the memory tier goes straight to disk; larger than both is not
// stored at all.
//
//lint:effects inserts and evicts cache blocks
func (c *blockCache) put(k blockKey, data *rdd.ColBatch, bytes int64) {
	if old, ok := c.blocks[k]; ok {
		c.remove(old)
	}
	b := &block{key: k, data: data, bytes: bytes}
	if bytes <= c.memCap {
		c.evictMem(bytes)
		b.where = tierMem
		b.elem = c.memLRU.PushFront(b)
		c.memUsed += bytes
		c.insert(b)
		return
	}
	if bytes <= c.diskCap {
		c.evictDisk(bytes)
		b.where = tierDisk
		b.elem = c.diskLRU.PushFront(b)
		c.diskUsed += bytes
		c.insert(b)
	}
	// else: too large to store anywhere; silently skipped.
}

// evictMem frees space in the memory tier by demoting LRU blocks to disk.
//
//lint:effects demotes and drops cache blocks
func (c *blockCache) evictMem(need int64) {
	for c.memUsed+need > c.memCap {
		e := c.memLRU.Back()
		if e == nil {
			return
		}
		b := e.Value.(*block)
		c.memLRU.Remove(e)
		c.memUsed -= b.bytes
		// Demote to disk.
		if b.bytes <= c.diskCap {
			c.evictDisk(b.bytes)
			b.where = tierDisk
			b.elem = c.diskLRU.PushFront(b)
			c.diskUsed += b.bytes
			if c.onEvict != nil {
				c.onEvict(b.key, b.bytes, true)
			}
		} else {
			c.drop(b.key)
			if c.onEvict != nil {
				c.onEvict(b.key, b.bytes, false)
			}
		}
	}
}

// evictDisk frees space in the disk tier by dropping LRU blocks.
//
//lint:effects drops cache blocks
func (c *blockCache) evictDisk(need int64) {
	for c.diskUsed+need > c.diskCap {
		e := c.diskLRU.Back()
		if e == nil {
			return
		}
		b := e.Value.(*block)
		c.diskLRU.Remove(e)
		c.diskUsed -= b.bytes
		c.drop(b.key)
		if c.onEvict != nil {
			c.onEvict(b.key, b.bytes, false)
		}
	}
}

// remove deletes a block outright.
//
//lint:effects removes a cache block and updates tier counters
func (c *blockCache) remove(b *block) {
	if b.where == tierMem {
		c.memLRU.Remove(b.elem)
		c.memUsed -= b.bytes
	} else {
		c.diskLRU.Remove(b.elem)
		c.diskUsed -= b.bytes
	}
	c.drop(b.key)
}

// insert makes b resident under its key; the only way a key enters
// blocks.
//
//lint:effects inserts a cache block
func (c *blockCache) insert(b *block) {
	c.blocks[b.key] = b
	if c.onPresence != nil {
		c.onPresence(b.key, true)
	}
}

// drop forgets key k; the only way a key leaves blocks.
//
//lint:effects removes a cache block
func (c *blockCache) drop(k blockKey) {
	delete(c.blocks, k)
	if c.onPresence != nil {
		c.onPresence(k, false)
	}
}

// usage returns current occupancy.
func (c *blockCache) usage() (mem, disk int64) { return c.memUsed, c.diskUsed }

// audit recomputes tier occupancy from the resident blocks and checks it
// against the incrementally maintained counters, the LRU list lengths and
// the configured capacities. Ground truth for the chaos invariant
// checkers: any drift means an eviction or insertion path lost bytes.
func (c *blockCache) audit() error {
	var mem, disk int64
	nMem, nDisk := 0, 0
	for _, b := range c.blocks {
		switch b.where {
		case tierMem:
			mem += b.bytes
			nMem++
		case tierDisk:
			disk += b.bytes
			nDisk++
		}
	}
	if mem != c.memUsed || disk != c.diskUsed {
		return fmt.Errorf("usage counters mem=%d disk=%d, blocks hold mem=%d disk=%d",
			c.memUsed, c.diskUsed, mem, disk)
	}
	if c.memLRU.Len() != nMem || c.diskLRU.Len() != nDisk {
		return fmt.Errorf("LRU lengths mem=%d disk=%d, blocks hold mem=%d disk=%d",
			c.memLRU.Len(), c.diskLRU.Len(), nMem, nDisk)
	}
	if c.memUsed > c.memCap || c.diskUsed > c.diskCap {
		return fmt.Errorf("over capacity: mem %d/%d disk %d/%d",
			c.memUsed, c.memCap, c.diskUsed, c.diskCap)
	}
	return nil
}
