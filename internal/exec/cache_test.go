package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flint/internal/rdd"
)

func rowsOf(n int) []rdd.Row {
	out := make([]rdd.Row, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestBlockCachePutGet(t *testing.T) {
	c := newBlockCache(1000, 1000)
	c.put(blockKey{1, 0}, rdd.WrapRows(rowsOf(3)), 100)
	b, ok := c.get(blockKey{1, 0})
	if !ok || b.bytes != 100 || b.data.Len() != 3 {
		t.Fatalf("get = %+v, %v", b, ok)
	}
	if b.where != tierMem {
		t.Error("fresh block should be in memory")
	}
	if !c.has(blockKey{1, 0}) || c.has(blockKey{9, 9}) {
		t.Error("has broken")
	}
	mem, disk := c.usage()
	if mem != 100 || disk != 0 {
		t.Errorf("usage = %d/%d", mem, disk)
	}
}

func TestBlockCacheReplaceSameKey(t *testing.T) {
	c := newBlockCache(1000, 1000)
	c.put(blockKey{1, 0}, rdd.WrapRows(rowsOf(1)), 400)
	c.put(blockKey{1, 0}, rdd.WrapRows(rowsOf(2)), 300)
	mem, _ := c.usage()
	if mem != 300 {
		t.Fatalf("replace leaked: mem = %d", mem)
	}
	b, _ := c.get(blockKey{1, 0})
	if b.data.Len() != 2 {
		t.Error("stale rows after replace")
	}
}

func TestBlockCacheLRUDemotionToDisk(t *testing.T) {
	c := newBlockCache(250, 1000)
	c.put(blockKey{1, 0}, nil, 100)
	c.put(blockKey{1, 1}, nil, 100)
	// Touch block 0 so block 1 is LRU.
	c.get(blockKey{1, 0})
	c.put(blockKey{1, 2}, nil, 100) // forces demotion of block 1
	b, ok := c.get(blockKey{1, 1})
	if !ok || b.where != tierDisk {
		t.Fatalf("LRU block not demoted to disk: %+v %v", b, ok)
	}
	b0, _ := c.get(blockKey{1, 0})
	if b0.where != tierMem {
		t.Error("recently used block should stay in memory")
	}
	mem, disk := c.usage()
	if mem != 200 || disk != 100 {
		t.Errorf("usage = %d/%d", mem, disk)
	}
}

func TestBlockCacheDiskEvictionDrops(t *testing.T) {
	c := newBlockCache(100, 150)
	c.put(blockKey{1, 0}, nil, 100) // mem
	c.put(blockKey{1, 1}, nil, 100) // demotes 0 to disk
	c.put(blockKey{1, 2}, nil, 100) // demotes 1 to disk, drops 0
	if c.has(blockKey{1, 0}) {
		t.Error("oldest block should have been dropped entirely")
	}
	if !c.has(blockKey{1, 1}) || !c.has(blockKey{1, 2}) {
		t.Error("younger blocks lost")
	}
}

func TestBlockCacheOversizeBlocks(t *testing.T) {
	c := newBlockCache(100, 200)
	// Bigger than memory but fits disk: straight to disk.
	c.put(blockKey{1, 0}, nil, 150)
	b, ok := c.get(blockKey{1, 0})
	if !ok || b.where != tierDisk {
		t.Fatalf("oversize block placement: %+v %v", b, ok)
	}
	// Bigger than both tiers: not stored at all.
	c.put(blockKey{1, 1}, nil, 500)
	if c.has(blockKey{1, 1}) {
		t.Error("block larger than all storage should be skipped")
	}
}

// Property: under any operation sequence, tier occupancies never exceed
// capacity and always equal the sum of resident block sizes.
func TestPropertyBlockCacheInvariants(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newBlockCache(500, 300)
		ops := int(opsRaw)%120 + 10
		for i := 0; i < ops; i++ {
			k := blockKey{rddID: rng.Intn(3), part: rng.Intn(5)}
			switch rng.Intn(3) {
			case 0, 1:
				c.put(k, nil, int64(rng.Intn(280)+1))
			case 2:
				c.get(k)
			}
			mem, disk := c.usage()
			if mem > 500 || disk > 300 || mem < 0 || disk < 0 {
				return false
			}
			var wantMem, wantDisk int64
			for _, b := range c.blocks {
				if b.where == tierMem {
					wantMem += b.bytes
				} else {
					wantDisk += b.bytes
				}
			}
			if wantMem != mem || wantDisk != disk {
				return false
			}
			if c.memLRU.Len()+c.diskLRU.Len() != len(c.blocks) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
