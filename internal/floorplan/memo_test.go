package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// wantBridges is Eq. (10)'s bridge count over a from-scratch plan's
// sorted adjacency list — the reference the Tree's count mode sums.
func wantBridges(res *Result, rangeMM float64) int {
	n := 0
	for _, a := range res.Adjacencies {
		n += int(math.Ceil(a.OverlapMM / rangeMM))
	}
	return n
}

func checkCount(t *testing.T, label string, blocks []Block, got *Result, gotBridges int, rangeMM float64) {
	t.Helper()
	want, err := Plan(blocks, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(want.WidthMM) != math.Float64bits(got.WidthMM) ||
		math.Float64bits(want.HeightMM) != math.Float64bits(got.HeightMM) ||
		math.Float64bits(want.ChipletAreaMM2) != math.Float64bits(got.ChipletAreaMM2) {
		t.Fatalf("%s: box/total differ: want %v×%v (%v), got %v×%v (%v)", label,
			want.WidthMM, want.HeightMM, want.ChipletAreaMM2, got.WidthMM, got.HeightMM, got.ChipletAreaMM2)
	}
	if wb := wantBridges(want, rangeMM); wb != gotBridges {
		t.Fatalf("%s: bridges %d, want %d", label, gotBridges, wb)
	}
	if got.Placements != nil || got.Adjacencies != nil {
		t.Fatalf("%s: count-mode result carries placements or adjacencies", label)
	}
}

// The count mode and the permutation-invariant memo against the
// from-scratch planner: random block sets whose areas repeat (identical
// dies), driven through whole-set permutations of their areas (memo
// hits by construction) and single-block Updates (the Gray-step shape),
// on a memoized tree with a table small enough to collide, a memoized
// dims-only tree and an unmemoized count tree.
func TestTreeCountModeAndMemoMatchPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const rangeMM = 2
	var memoHits uint64
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		pool := make([]float64, 1+rng.Intn(3))
		for i := range pool {
			pool[i] = 5 + rng.Float64()*250
		}
		ar := 0.0
		if trial%4 == 3 {
			ar = 0.5 + rng.Float64() // uniform non-square dies
		}
		blocks := make([]Block, n)
		for i := range blocks {
			blocks[i] = Block{Name: fmt.Sprintf("d%d", i), AreaMM2: pool[rng.Intn(len(pool))], AspectRatio: ar}
		}
		var memoTree, dimsTree, plain Tree
		memoTree.SetMemo(4)
		dimsTree.SetMemo(64)
		for step := 0; step < 80; step++ {
			label := fmt.Sprintf("trial %d step %d", trial, step)
			if step == 0 || rng.Intn(3) == 0 {
				// Permute the areas across the blocks.
				perm := rng.Perm(n)
				areas := make([]float64, n)
				for i, j := range perm {
					areas[i] = blocks[j].AreaMM2
				}
				for i := range blocks {
					blocks[i].AreaMM2 = areas[i]
				}
				for _, tr := range []*Tree{&memoTree, &plain} {
					got, err := tr.PlanBridges(blocks, 0.5, rangeMM)
					if err != nil {
						t.Fatal(err)
					}
					checkCount(t, label, blocks, got, tr.Bridges(), rangeMM)
				}
				got, err := dimsTree.PlanDims(blocks, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				checkCount(t, label+" dims", blocks, got, wantBridges(mustPlan(t, blocks), rangeMM), rangeMM)
				continue
			}
			idx := rng.Intn(n)
			if rng.Intn(4) == 0 {
				blocks[idx].AreaMM2 = 5 + rng.Float64()*250 // a fresh area
			} else {
				blocks[idx].AreaMM2 = pool[rng.Intn(len(pool))]
			}
			for _, tr := range []*Tree{&memoTree, &plain} {
				got, err := tr.Update(idx, blocks[idx].AreaMM2)
				if err != nil {
					t.Fatal(err)
				}
				checkCount(t, label+" update", blocks, got, tr.Bridges(), rangeMM)
			}
			got, err := dimsTree.Update(idx, blocks[idx].AreaMM2)
			if err != nil {
				t.Fatal(err)
			}
			checkCount(t, label+" dims update", blocks, got, wantBridges(mustPlan(t, blocks), rangeMM), rangeMM)
		}
		if s := plain.Stats(); s.MemoHits != 0 {
			t.Fatalf("trial %d: an unarmed tree served memo hits: %+v", trial, s)
		}
		memoHits += memoTree.Stats().MemoHits + dimsTree.Stats().MemoHits
	}
	if memoHits == 0 {
		t.Fatal("no permutation was ever served from the memo")
	}
}

func mustPlan(t *testing.T, blocks []Block) *Result {
	t.Helper()
	res, err := Plan(blocks, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Blocks of equal area but different aspect ratios do not have equal
// geometry, so the memo must never serve them; and a memo hit must not
// leak into the modes whose Results carry placements, nor into a fork.
func TestTreeMemoPreconditions(t *testing.T) {
	blocks := []Block{
		{Name: "a", AreaMM2: 100, AspectRatio: 2},
		{Name: "b", AreaMM2: 100},
		{Name: "c", AreaMM2: 40},
	}
	var tr Tree
	tr.SetMemo(16)
	for step := 0; step < 4; step++ {
		blocks[0].AreaMM2, blocks[1].AreaMM2 = blocks[1].AreaMM2, blocks[0].AreaMM2
		got, err := tr.PlanBridges(blocks, 0.5, 2)
		if err != nil {
			t.Fatal(err)
		}
		checkCount(t, fmt.Sprintf("mixed aspect step %d", step), blocks, got, tr.Bridges(), 2)
	}
	if s := tr.Stats(); s.MemoHits != 0 {
		t.Fatalf("memo served mixed-aspect blocks: %+v", s)
	}

	// The same areas under another common aspect ratio are another plan.
	var at Tree
	at.SetMemo(16)
	for _, ar := range []float64{0, 0, 2.5, 2.5, 0} {
		for i := range blocks {
			blocks[i].AspectRatio = ar
		}
		got, err := at.PlanDims(blocks, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		checkCount(t, fmt.Sprintf("aspect %v", ar), blocks, got, wantBridges(mustPlan(t, blocks), 2), 2)
	}

	for i := range blocks {
		blocks[i].AspectRatio = 0
	}
	var mt Tree
	mt.SetMemo(16)
	if _, err := mt.PlanDims(blocks, 0.5); err != nil {
		t.Fatal(err)
	}
	// Move 40 to another block, then back: the second visit is a hit,
	// leaving the tree stale.
	blocks[1].AreaMM2, blocks[2].AreaMM2 = blocks[2].AreaMM2, blocks[1].AreaMM2
	if _, err := mt.PlanDims(blocks, 0.5); err != nil {
		t.Fatal(err)
	}
	blocks[1].AreaMM2, blocks[2].AreaMM2 = blocks[2].AreaMM2, blocks[1].AreaMM2
	if _, err := mt.PlanDims(blocks, 0.5); err != nil {
		t.Fatal(err)
	}
	blocks[0].AreaMM2 = 7
	if _, err := mt.Update(0, 7); err != nil {
		t.Fatal(err)
	}
	blocks[0].AreaMM2 = 100
	if _, err := mt.Update(0, 100); err != nil {
		t.Fatal(err)
	}
	if s := mt.Stats(); s.MemoHits < 2 {
		t.Fatalf("permuted and revisited areas missed the memo: %+v", s)
	}
	if !mt.stale {
		t.Fatal("a memo hit left the tree marked current")
	}
	// A fork reads the retained plan, which the hit left behind.
	extra := Block{Name: "m", AreaMM2: 140}
	w, h, total, err := mt.ForkDims(0, 1, extra)
	if err != nil {
		t.Fatal(err)
	}
	want := mustPlan(t, []Block{blocks[2], extra})
	if math.Float64bits(w) != math.Float64bits(want.WidthMM) || math.Float64bits(h) != math.Float64bits(want.HeightMM) ||
		math.Float64bits(total) != math.Float64bits(want.ChipletAreaMM2) {
		t.Fatalf("fork after a memo hit: %v×%v (%v), want %v×%v (%v)", w, h, total, want.WidthMM, want.HeightMM, want.ChipletAreaMM2)
	}
	// Placement modes replan in full.
	got, err := mt.Plan(blocks, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "full plan after a memo hit", mustPlan(t, blocks), got)
}
