package kernel

import "testing"

// The per-point package memo must count its traffic — and in particular
// the recomputes forced by direct-mapped slot collisions, the signal an
// eviction policy would be justified by.
func TestPkgMemoStatsCountsHitsMissesCollisions(t *testing.T) {
	sc := &Scratch{}
	span := uint64(1) << (pkgPointSlotBits + 2) // force the hashed, collision-prone regime

	// Cold lookup on an unsized table: a miss, not a collision.
	if _, ok := sc.LoadPackagePoint(1, span); ok {
		t.Fatal("hit on an empty memo")
	}
	sc.StorePackagePoint(1, span, PkgPoint{HIKg: 1})
	if _, ok := sc.LoadPackagePoint(1, span); !ok {
		t.Fatal("miss on a stored point")
	}

	// Find an index that hashes to point 1's slot and evict it, then
	// observe the collision recompute when point 1 is looked up again.
	slot := pkgPointSlot(1, span)
	other := uint64(2)
	for ; pkgPointSlot(other, span) != slot; other++ {
	}
	if _, ok := sc.LoadPackagePoint(other, span); ok {
		t.Fatal("hit for a colliding index that was never stored")
	}
	sc.StorePackagePoint(other, span, PkgPoint{HIKg: 2})
	if _, ok := sc.LoadPackagePoint(1, span); ok {
		t.Fatal("hit for point 1 after its slot was evicted")
	}

	s := sc.PkgMemoStats()
	if s.Hits != 1 {
		t.Errorf("Hits = %d, want 1", s.Hits)
	}
	if s.Misses != 3 {
		t.Errorf("Misses = %d, want 3", s.Misses)
	}
	// The occupied-slot lookups: `other` before its store, and point 1
	// after the eviction.
	if s.Collisions != 2 {
		t.Errorf("Collisions = %d, want 2", s.Collisions)
	}
	// One empty slot claimed (point 1); `other`'s store overwrote it.
	if s.Fills != 1 {
		t.Errorf("Fills = %d, want 1", s.Fills)
	}
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions)
	}
	if occ, cap := sc.PkgMemoOccupancy(); occ != 1 || cap != 1<<pkgPointSlotBits {
		t.Errorf("occupancy = %d/%d, want 1/%d", occ, cap, 1<<pkgPointSlotBits)
	}
	if d := sc.PkgMemoStats().Delta(s); d != (PkgMemoStats{}) {
		t.Errorf("Delta against the latest snapshot = %+v, want zero", d)
	}
}

// Re-storing the same point must not inflate the fill or eviction
// counters, and occupancy must track live entries, not store traffic.
func TestPkgMemoOccupancyIdentitySpan(t *testing.T) {
	sc := &Scratch{}
	span := uint64(16)
	for idx := uint64(0); idx < span; idx++ {
		sc.StorePackagePoint(idx, span, PkgPoint{})
		sc.StorePackagePoint(idx, span, PkgPoint{}) // overwrite in place
	}
	if occ, cap := sc.PkgMemoOccupancy(); occ != int(span) || cap != int(span) {
		t.Errorf("occupancy = %d/%d, want %d/%d", occ, cap, span, span)
	}
	s := sc.PkgMemoStats()
	if s.Fills != span {
		t.Errorf("Fills = %d, want %d", s.Fills, span)
	}
	if s.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0: same-key overwrites evict nothing", s.Evictions)
	}
	// A span change rebuilds the table: occupancy resets, counters keep
	// accumulating monotonically.
	sc.StorePackagePoint(0, span*2, PkgPoint{})
	if occ, cap := sc.PkgMemoOccupancy(); occ != 1 || cap != int(span*2) {
		t.Errorf("occupancy after resize = %d/%d, want 1/%d", occ, cap, span*2)
	}
	if got := sc.PkgMemoStats().Fills; got != span+1 {
		t.Errorf("Fills after resize = %d, want %d", got, span+1)
	}
}

// Identity-mapped spans (the common small-sweep case) can never collide:
// every miss must be a cold slot.
func TestPkgMemoStatsNoCollisionsWithinSlotCapacity(t *testing.T) {
	sc := &Scratch{}
	span := uint64(64)
	for idx := uint64(0); idx < span; idx++ {
		sc.LoadPackagePoint(idx, span)
		sc.StorePackagePoint(idx, span, PkgPoint{})
	}
	for idx := uint64(0); idx < span; idx++ {
		if _, ok := sc.LoadPackagePoint(idx, span); !ok {
			t.Fatalf("miss for stored point %d", idx)
		}
	}
	s := sc.PkgMemoStats()
	if s.Collisions != 0 {
		t.Errorf("Collisions = %d, want 0 for an identity-mapped span", s.Collisions)
	}
	if s.Hits != span || s.Misses != span {
		t.Errorf("Hits/Misses = %d/%d, want %d/%d", s.Hits, s.Misses, span, span)
	}
}

// A walk over a point space the memo cannot hold whole sizes the table
// to the walk: a single point gets the smallest table, a longer walk
// grows (and empties) it, a shorter one keeps it. A space the memo holds
// whole keeps its identity-mapped table.
func TestPkgMemoSizedToTheWalk(t *testing.T) {
	sc := &Scratch{}
	span := uint64(1) << (pkgPointSlotBits + 2)
	sc.SizePackagePointMemo(span, 1)
	sc.StorePackagePoint(7, span, PkgPoint{HIKg: 7})
	if occ, cap := sc.PkgMemoOccupancy(); occ != 1 || cap != minPkgPointSlots {
		t.Fatalf("single-point walk: occupancy = %d/%d, want 1/%d", occ, cap, minPkgPointSlots)
	}
	sc.SizePackagePointMemo(span, 1)
	if v, ok := sc.LoadPackagePoint(7, span); !ok || v.HIKg != 7 {
		t.Fatalf("a second single-point walk lost the stored point: %+v, %v", v, ok)
	}
	// Every index of the space lands inside the small table.
	for idx := uint64(0); idx < span; idx += 97 {
		sc.StorePackagePoint(idx, span, PkgPoint{HIKg: float64(idx)})
		if v, ok := sc.LoadPackagePoint(idx, span); !ok || v.HIKg != float64(idx) {
			t.Fatalf("index %d: %+v, %v", idx, v, ok)
		}
	}

	sc.SizePackagePointMemo(span, 600)
	if occ, cap := sc.PkgMemoOccupancy(); occ != 0 || cap != 1024 {
		t.Fatalf("600-point walk: occupancy = %d/%d, want 0/1024", occ, cap)
	}
	sc.SizePackagePointMemo(span, span)
	if _, cap := sc.PkgMemoOccupancy(); cap != PkgPointMemoSlots {
		t.Fatalf("whole walk: capacity %d, want %d", cap, PkgPointMemoSlots)
	}
	sc.StorePackagePoint(7, span, PkgPoint{HIKg: 7})
	sc.SizePackagePointMemo(span, 1)
	if _, ok := sc.LoadPackagePoint(7, span); !ok {
		t.Fatal("a single-point walk shrank the full table")
	}

	small := &Scratch{}
	small.SizePackagePointMemo(625, 1)
	small.StorePackagePoint(3, 625, PkgPoint{})
	if occ, cap := small.PkgMemoOccupancy(); occ != 1 || cap != 625 {
		t.Fatalf("625-point space: occupancy = %d/%d, want 1/625", occ, cap)
	}
}
