//lint:hot open-addressed slot tables probe per row
package rdd

// Columnar slot tables: open-addressed hash indexes over typed key
// columns. They replace per-row Go map probes with linear probing over
// two flat arrays (keys and slots), sized to a power of two so the probe
// sequence needs no division. Slot numbers are handed out in first-seen
// order exactly like the generic map[Row]int path, so the rows a
// columnar kernel emits are byte-identical to it; the table layout
// itself (probe positions, growth instants) never leaks into any output.
//
// fastDiv strength-reduces the shuffle bucketer's `hash % numOut` — a
// 64-bit hardware division per row — into a 128-bit multiply and shift
// with an identical result for every input (Hacker's Delight magicu,
// exhaustively cross-checked against % in coltable_test.go).

import "math/bits"

// fastDiv divides 64-bit values by a fixed divisor via multiply-and-shift.
type fastDiv struct {
	d   uint64
	m   uint64 // magic multiplier
	s   uint   // post shift
	add bool   // magic overflowed 64 bits: apply the add-and-halve fixup
}

// newFastDiv prepares division by d (d >= 1).
func newFastDiv(d uint64) fastDiv {
	if d == 0 {
		panic("rdd: fastDiv by zero")
	}
	if d&(d-1) == 0 {
		// Power of two: pure shift, magic of 2^64-1 keeps mulhi(x,m) = x-ish
		// path unused.
		return fastDiv{d: d, m: 0, s: uint(bits.TrailingZeros64(d)), add: false}
	}
	m, s, add := magicU64(d)
	return fastDiv{d: d, m: m, s: s, add: add}
}

// div returns x / f.d.
func (f fastDiv) div(x uint64) uint64 {
	if f.m == 0 {
		return x >> f.s
	}
	hi, _ := bits.Mul64(x, f.m)
	if f.add {
		return (((x - hi) >> 1) + hi) >> (f.s - 1)
	}
	return hi >> f.s
}

// mod returns x % f.d.
func (f fastDiv) mod(x uint64) uint64 {
	if f.m == 0 {
		return x & (f.d - 1)
	}
	return x - f.div(x)*f.d
}

// magicU64 computes the magic multiplier, shift and overflow flag for
// unsigned 64-bit division by d (Hacker's Delight, 2nd ed., fig. 10-2,
// widened to 64 bits). d must not be a power of two.
func magicU64(d uint64) (m uint64, s uint, add bool) {
	const two63 = uint64(1) << 63
	p := uint(63)
	nc := ^uint64(0) - (^uint64(0)-d+1)%d
	q1 := two63 / nc
	r1 := two63 - q1*nc
	q2 := (two63 - 1) / d
	r2 := (two63 - 1) - q2*d
	for {
		p++
		if r1 >= nc-r1 {
			q1 = 2*q1 + 1
			r1 = 2*r1 - nc
		} else {
			q1 = 2 * q1
			r1 = 2 * r1
		}
		if r2+1 >= d-r2 {
			if q2 >= two63-1 {
				add = true
			}
			q2 = 2*q2 + 1
			r2 = 2*r2 + 1 - d
		} else {
			if q2 >= two63 {
				add = true
			}
			q2 = 2 * q2
			r2 = 2*r2 + 1
		}
		delta := d - 1 - r2
		if p >= 128 || (q1 >= delta && !(q1 == delta && r1 == 0)) {
			break
		}
	}
	return q2 + 1, p - 64, add
}

// tableCap returns the power-of-two table size for an expected key count.
func tableCap(hint int) int {
	c := 16
	for c < hint*2 {
		c <<= 1
	}
	return c
}

// i64Table maps int64 keys to dense first-seen slots by linear probing.
// Keys and slots live in parallel probe-position arrays: at reduce-scale
// key counts both stay cache-resident, and the separate int32 slot array
// keeps the table's footprint (and per-call zeroing) smaller than an
// interleaved 16-byte entry layout would.
type i64Table struct {
	mask uint64
	keys []int64 // probe-position keyed
	slot []int32 // probe-position keyed; -1 = empty
	n    int     // slots assigned
	// inorder holds the key of every assigned slot in slot order, for
	// rehashing on growth and for cross-table probes (join match loops).
	inorder []int64
}

func newI64Table(hint int) *i64Table {
	c := tableCap(hint)
	t := &i64Table{
		mask:    uint64(c - 1),
		keys:    make([]int64, c),
		slot:    make([]int32, c),
		inorder: make([]int64, 0, hint),
	}
	for i := range t.slot {
		t.slot[i] = -1
	}
	return t
}

// slotOf returns the dense slot for key k (hashed to h), assigning the
// next free slot when the key is new (added reports which).
func (t *i64Table) slotOf(k int64, h uint64) (s int32, added bool) {
	if t.n*4 >= len(t.slot)*3 {
		t.grow()
	}
	i := h & t.mask
	for {
		s := t.slot[i]
		if s < 0 {
			s = int32(t.n)
			t.slot[i] = s
			t.keys[i] = k
			t.n++
			t.inorder = append(t.inorder, k)
			return s, true
		}
		if t.keys[i] == k {
			return s, false
		}
		i = (i + 1) & t.mask
	}
}

// lookup returns the slot of k without assigning one.
func (t *i64Table) lookup(k int64, h uint64) (int32, bool) {
	i := h & t.mask
	for {
		s := t.slot[i]
		if s < 0 {
			return 0, false
		}
		if t.keys[i] == k {
			return s, true
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table, reinserting every assigned key at its existing
// slot number (slot numbers never change; only probe positions do).
func (t *i64Table) grow() {
	c := len(t.slot) * 2
	keys := make([]int64, c)
	slot := make([]int32, c)
	for i := range slot {
		slot[i] = -1
	}
	mask := uint64(c - 1)
	for s, k := range t.inorder {
		i := mix(uint64(k)) & mask
		for slot[i] >= 0 {
			i = (i + 1) & mask
		}
		slot[i] = int32(s)
		keys[i] = k
	}
	t.mask, t.keys, t.slot = mask, keys, slot
}

// strTable maps string keys to dense first-seen slots by linear probing,
// keeping the key bytes in one shared arena addressed by offsets: entry i
// spans arena[off[i] : off[i]+len[i]]. Hashes are cached per entry so a
// probe compares 8 bytes before touching the arena.
type strTable struct {
	mask  uint64
	hash  []uint64 // probe-position keyed
	slot  []int32  // probe-position keyed; -1 = empty
	off   []int32  // probe-position keyed: start of key bytes in arena
	klen  []int32  // probe-position keyed: key byte length
	arena []byte
	n     int
	// inorder holds (offset, length) per assigned slot for rehashing and
	// cross-table probes; the hash per slot rides along.
	inOff  []int32
	inLen  []int32
	inHash []uint64
}

func newStrTable(hint int) *strTable {
	c := tableCap(hint)
	t := &strTable{
		mask:   uint64(c - 1),
		hash:   make([]uint64, c),
		slot:   make([]int32, c),
		off:    make([]int32, c),
		klen:   make([]int32, c),
		arena:  make([]byte, 0, hint*16),
		inOff:  make([]int32, 0, hint),
		inLen:  make([]int32, 0, hint),
		inHash: make([]uint64, 0, hint),
	}
	for i := range t.slot {
		t.slot[i] = -1
	}
	return t
}

// strHash is the probe hash for string keys. It is unrelated to the
// shuffle routing hash (HashKey): table layout is transparent to every
// output, so this only needs to be deterministic within one kernel call.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	i := 0
	for ; i+8 <= len(s); i += 8 {
		// The compiler combines these byte loads into one 64-bit load.
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h = (h ^ w) * 1099511628211
	}
	for ; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return mix(h)
}

// keyAt returns the key bytes of probe position i.
func (t *strTable) keyAt(i uint64) []byte {
	return t.arena[t.off[i] : t.off[i]+t.klen[i]]
}

// slotOf returns the dense slot for key k (hashed to h), appending the
// key bytes to the arena when new.
func (t *strTable) slotOf(k string, h uint64) (s int32, added bool) {
	if t.n*4 >= len(t.slot)*3 {
		t.grow()
	}
	i := h & t.mask
	for {
		s := t.slot[i]
		if s < 0 {
			off := int32(len(t.arena))
			t.arena = append(t.arena, k...)
			s = int32(t.n)
			t.slot[i] = s
			t.hash[i] = h
			t.off[i] = off
			t.klen[i] = int32(len(k))
			t.n++
			t.inOff = append(t.inOff, off)
			t.inLen = append(t.inLen, int32(len(k)))
			t.inHash = append(t.inHash, h)
			return s, true
		}
		if t.hash[i] == h && string(t.keyAt(i)) == k {
			return s, false
		}
		i = (i + 1) & t.mask
	}
}

// lookupStr returns the slot whose key equals k (hashed to h). The
// string(...) conversion in the comparison does not allocate.
func (t *strTable) lookupStr(k string, h uint64) (int32, bool) {
	i := h & t.mask
	for {
		s := t.slot[i]
		if s < 0 {
			return 0, false
		}
		if t.hash[i] == h && string(t.keyAt(i)) == k {
			return s, true
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table, preserving slot numbers and the arena.
func (t *strTable) grow() {
	c := len(t.slot) * 2
	hash := make([]uint64, c)
	slot := make([]int32, c)
	off := make([]int32, c)
	klen := make([]int32, c)
	for i := range slot {
		slot[i] = -1
	}
	mask := uint64(c - 1)
	for s := range t.inOff {
		h := t.inHash[s]
		i := h & mask
		for slot[i] >= 0 {
			i = (i + 1) & mask
		}
		slot[i] = int32(s)
		hash[i] = h
		off[i] = t.inOff[s]
		klen[i] = t.inLen[s]
	}
	t.mask, t.hash, t.slot, t.off, t.klen = mask, hash, slot, off, klen
}
