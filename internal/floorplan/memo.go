package floorplan

import "math"

// This file is the Tree's permutation-invariant memo. A fixed-shape
// plan is a function of the blocks' areas in sorted order: the stable
// sort, every area-balanced partition decision and every composition
// read areas (and, through dims, aspect ratios) by sorted position only.
// Blocks of equal area and equal aspect ratio have identical geometry,
// so which of them lands at a position changes names, never numbers. On
// a uniform-aspect block set the bounding box and the bridge count are
// therefore a function of the sorted area multiset alone, and every
// permutation of a set of identical dies over the same nodes — the
// same multiset in a different caller order — shares one entry.
// ChipletAreaMM2 is not memoized: it is the caller-order sum, which the
// Tree computes fresh on every call.

// MaxMemoSlots caps the memo's slot count (SetMemo rounds to a power of
// two no larger than this).
const MaxMemoSlots = 1024

// memo is a two-way set-associative table keyed by the exact bits of
// the sorted area vector: a key hashes to a set of two slots, and a miss
// replaces the set's less recently used one (a Gray walk alternates
// between neighbouring multisets, which a direct-mapped table thrashes
// on whenever two of them share a slot). Every key is compared in full,
// so a hash collision only recomputes. Entry words of 0 mark empty
// slots: a validated area is strictly positive, so its bit pattern is
// never zero.
type memo struct {
	slots int // power of two, at least 2; 0 = disarmed
	bits  int // log2(slots/2): the set index width
	// n, spacing, mode, rangeMM and aspect (the blocks' common aspect
	// ratio) are the plan settings the stored entries were computed
	// under; a change clears the table.
	n       int
	spacing float64
	mode    planMode
	rangeMM float64
	aspect  float64

	keys []uint64 // slots × n sorted area bits
	vals []memoVal
	key  []uint64 // the last lookup key
	slot int      // the last lookup key's slot
	// pending reports that the last lookup missed and its key awaits the
	// plan memoStore records.
	pending bool
}

type memoVal struct {
	w, h    float64
	bridges int
	// older marks the set's less recently used way (kept on way 0 only).
	older uint8
}

// SetMemo arms the permutation-invariant memo with room for slots
// entries (rounded up to a power of two between 2 and MaxMemoSlots), or
// disarms it with 0. An armed memo serves PlanDims, PlanBridges and
// their Updates whenever every block has the same aspect ratio; Plan
// and PlanNoAdjacencies, whose Results carry placements, never use it.
// After a hit the tree is stale — its retained plan lags the blocks —
// and the next miss re-plans the current blocks against it. Hits count
// in TreeStats.MemoHits. The table holds slots × (8 bytes per block +
// 32) bytes, allocated by the first lookup; re-arming with the same size
// keeps its entries.
func (t *Tree) SetMemo(slots int) {
	if slots <= 0 {
		t.memo = memo{}
		return
	}
	size, bits := 2, 0
	for size < slots && size < MaxMemoSlots {
		size <<= 1
		bits++
	}
	if size != t.memo.slots {
		t.memo = memo{slots: size, bits: bits}
	}
}

// memoServe looks the current blocks up in the armed memo and, on a
// hit, writes the entry into the Result and marks the tree stale. On a
// miss it leaves the key for memoStore.
func (t *Tree) memoServe(total float64) bool {
	m := &t.memo
	m.pending = false
	if m.slots == 0 || !t.uniformAR || (t.mode != modeDims && t.mode != modeBridges) {
		return false
	}
	n := len(t.blocks)
	aspect := t.blocks[0].AspectRatio
	if m.n != n || m.spacing != t.spacing || m.mode != t.mode || m.rangeMM != t.bridgeRange ||
		math.Float64bits(m.aspect) != math.Float64bits(aspect) || m.keys == nil {
		if cap(m.keys) < m.slots*n {
			m.keys = make([]uint64, m.slots*n)
			m.vals = make([]memoVal, m.slots)
		} else {
			m.keys = m.keys[:m.slots*n]
			clear(m.keys)
		}
		m.n, m.spacing, m.mode, m.rangeMM, m.aspect = n, t.spacing, t.mode, t.bridgeRange, aspect
		m.key = make([]uint64, n)
	}
	// The key: the areas sorted by insertion (a handful of blocks), then
	// their bits hashed Fibonacci-style into a slot. The slot takes the
	// hash's top bits: a product's low bits see only the operands' low
	// bits, which are all zero for round areas.
	key := m.key
	for i := range t.blocks {
		b := math.Float64bits(t.blocks[i].AreaMM2)
		if b >= 0x7ff0000000000000 {
			// A non-finite area: the sort no longer orders like the
			// bits, so the multiset argument does not hold.
			return false
		}
		j := i - 1
		// Positive finite floats order like their bit patterns.
		for j >= 0 && key[j] < b {
			key[j+1] = key[j]
			j--
		}
		key[j+1] = b
	}
	h := uint64(0)
	for _, k := range key {
		h = (h ^ k) * 0x9e3779b97f4a7c15
	}
	set := int(h>>(64-m.bits)) * 2 // a 64-bit shift yields 0: one set
	way := -1
	for w := 0; w < 2 && way < 0; w++ {
		stored := m.keys[(set+w)*n : (set+w+1)*n]
		way = w
		for i, k := range key {
			if stored[i] != k {
				way = -1
				break
			}
		}
	}
	if way < 0 {
		m.slot = set + int(m.vals[set].older)
		m.vals[set].older ^= 1
		m.pending = true
		return false
	}
	m.vals[set].older = uint8(1 - way)
	v := &m.vals[set+way]
	t.res.WidthMM, t.res.HeightMM, t.res.ChipletAreaMM2 = v.w, v.h, total
	t.bridges = v.bridges
	t.stale = true
	t.stats.MemoHits++
	return true
}

// memoStore records the plan just computed under the key of the
// memoServe miss before it (a no-op when there was none).
func (t *Tree) memoStore() {
	m := &t.memo
	if !m.pending {
		return
	}
	m.pending = false
	copy(m.keys[m.slot*m.n:(m.slot+1)*m.n], m.key)
	v := &m.vals[m.slot]
	v.w, v.h, v.bridges = t.res.WidthMM, t.res.HeightMM, t.bridges
}
