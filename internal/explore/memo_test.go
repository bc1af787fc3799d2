package explore

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/descarbon"
	"ecochip/internal/engine"
	"ecochip/internal/mfg"
	"ecochip/internal/opcarbon"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// identicalDieSystem builds an nc-chiplet system whose first `same`
// chiplets are one die design (equal area and type, so their table
// area columns are bit-identical) and whose others are distinct dies.
func identicalDieSystem(rng *rand.Rand, db *tech.DB, arch pkgcarbon.Architecture, nc, same int) *core.System {
	ref := db.MustGet(7)
	types := []tech.DesignType{tech.Logic, tech.Memory, tech.Analog}
	dieArea := 20 + rng.Float64()*60
	chiplets := make([]core.Chiplet, nc)
	for i := range chiplets {
		if i < same {
			chiplets[i] = core.BlockFromArea(fmt.Sprintf("ccd%d", i), tech.Logic, dieArea, ref, 7)
			chiplets[i].Reused = true
			continue
		}
		chiplets[i] = core.BlockFromArea(fmt.Sprintf("die%d", i), types[rng.Intn(len(types))],
			20+rng.Float64()*120, ref, testcases.MaskNodes[rng.Intn(len(testcases.MaskNodes))])
	}
	return &core.System{
		Name:       fmt.Sprintf("ident-%v-%d-%d", arch, nc, same),
		Chiplets:   chiplets,
		Packaging:  pkgcarbon.DefaultParams(arch),
		Mfg:        mfg.DefaultParams(),
		Design:     descarbon.DefaultParams(),
		IncludeNRE: rng.Intn(2) == 0,
		Operation: &opcarbon.Spec{
			DutyCycle:       0.15,
			LifetimeYears:   3,
			CarbonIntensity: 0.4,
			AnnualEnergyKWh: 120,
		},
	}
}

// memoCase is one plan of the floorplan-memo parity suite.
type memoCase struct {
	arch     pkgcarbon.Architecture
	nc, same int
}

// The permutation-invariant floorplan memo must leave every compiled
// path bit-identical to the per-point reference on identical-die
// systems of every architecture, with plans past the full package
// column (so the walk arms the floorplan memo): RunCtx, ParetoFrontCtx
// and WalkRange over armed segments and single points. Each walk kind
// runs on a fresh plan, since a re-walk of a plan is served from its
// package column and never reaches the floorplanner; a column-served
// re-walk is checked too. One plan has more distinct area multisets
// than memo slots, so evictions and collision recomputes run too; and
// the memo must actually serve hits, so the parity cannot hold
// vacuously.
func TestFloorplanMemoMatchesReferenceRandomized(t *testing.T) {
	d := db()
	cp := cost.DefaultParams()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4099))
	nodes := []int{7, 14, 28}

	var cases []memoCase
	for _, arch := range pkgcarbon.Architectures {
		// 6 identical dies + 2 distinct over 3 nodes: 6561 points,
		// C(8,2)·3·3 = 252 distinct multisets.
		cases = append(cases, memoCase{arch, 8, 6})
	}
	// 2 identical dies + 6 distinct: C(4,2)·3^6 = 4374 multisets against
	// a 1024-slot table.
	cases = append(cases, memoCase{pkgcarbon.SiliconBridge, 8, 2}, memoCase{pkgcarbon.RDLFanout, 8, 2})
	if testing.Short() {
		cases = cases[len(cases)-3:]
	}

	for _, c := range cases {
		base := identicalDieSystem(rng, d, c.arch, c.nc, c.same)
		label := fmt.Sprintf("%v %d dies (%d identical)", c.arch, c.nc, c.same)
		compile := func() *CompiledPlan {
			t.Helper()
			plan, err := Compile(base, d, nodes, cp)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if plan.Combos() <= fullColumnPoints {
				t.Fatalf("%s: %d points do not exceed the full package column", label, plan.Combos())
			}
			if plan.fpMemoSlots == 0 {
				t.Fatalf("%s: the plan did not size a floorplan memo", label)
			}
			if c.same == 2 && plan.fpMemoSlots != 1024 {
				t.Fatalf("%s: memo sized %d slots, want the 1024 cap", label, plan.fpMemoSlots)
			}
			return plan
		}
		want, err := NodeSweepReference(ctx, base, d, nodes, cp, engine.WithWorkers(2))
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}

		// Every walk kind serves hits on its own where multisets repeat
		// densely; the 2-identical plans, whose 4374 multisets overflow
		// the table, must serve them over the three walks together.
		var memoHits uint64
		countHits := func(plan *CompiledPlan, kind string) {
			t.Helper()
			h := plan.Stats().Floorplan.MemoHits
			if c.arch != pkgcarbon.ThreeD && c.same > 2 && h == 0 {
				t.Fatalf("%s: the floorplan memo served no hit on the %s walk", label, kind)
			}
			memoHits += h
		}
		runPlan := compile()
		got, err := runPlan.RunCtx(ctx, engine.WithWorkers(2))
		if err != nil {
			t.Fatalf("%s: RunCtx: %v", label, err)
		}
		for i := range want {
			if !pointsBitIdentical(got[i], want[i]) {
				t.Fatalf("%s: RunCtx point %d differs\nwant %+v\ngot  %+v", label, i, want[i], got[i])
			}
		}
		countHits(runPlan, "RunCtx")

		objectives := []Metric{ByEmbodied, ByCost}
		frontPlan := compile()
		front, total, err := frontPlan.ParetoFrontCtx(ctx, objectives, engine.WithWorkers(2))
		if err != nil {
			t.Fatalf("%s: ParetoFrontCtx: %v", label, err)
		}
		wantFront := ParetoFront(want, objectives...)
		if total != len(want) || len(front) != len(wantFront) {
			t.Fatalf("%s: front of %d (total %d), want %d (total %d)", label, len(front), total, len(wantFront), len(want))
		}
		for i := range wantFront {
			if !pointsBitIdentical(front[i], wantFront[i]) {
				t.Fatalf("%s: front point %d differs\nwant %+v\ngot  %+v", label, i, wantFront[i], front[i])
			}
		}
		countHits(frontPlan, "ParetoFrontCtx")

		// Single points (below the arming length) and segments of up to
		// two shard blocks, in shuffled order.
		var cuts []int
		for k := 0; k < len(want); {
			cuts = append(cuts, k)
			if rng.Intn(4) == 0 {
				k++
			} else {
				k += minMemoWalk + rng.Intn(1024)
			}
		}
		cuts = append(cuts, len(want))
		walkSegments := func(plan *CompiledPlan, kind string) {
			t.Helper()
			seen := make([]bool, len(want))
			for _, s := range rng.Perm(len(cuts) - 1) {
				err := plan.WalkRange(ctx, cuts[s], cuts[s+1], func(idx int, pt *Point) error {
					if !pointsBitIdentical(*pt, want[idx]) {
						return fmt.Errorf("%s WalkRange [%d,%d) point %d differs\nwant %+v\ngot  %+v", kind, cuts[s], cuts[s+1], idx, want[idx], *pt)
					}
					seen[idx] = true
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("%s: %s WalkRange segments never produced point %d", label, kind, i)
				}
			}
		}
		rangePlan := compile()
		walkSegments(rangePlan, "fresh-plan")
		countHits(rangePlan, "WalkRange")

		if c.arch != pkgcarbon.ThreeD && memoHits == 0 {
			t.Fatalf("%s: the floorplan memo served no hit on any walk kind", label)
		}

		// The RunCtx plan published its column (none on 3D stacks): the
		// same segments re-walk it from the column, never reaching the
		// floorplanner.
		before := runPlan.Stats()
		walkSegments(runPlan, "column-served")
		after := runPlan.Stats()
		served := after.PkgMemo.Hits - before.PkgMemo.Hits
		if c.arch == pkgcarbon.ThreeD {
			if served != 0 || after.ColumnBytes != 0 {
				t.Fatalf("%s: a large 3D plan served %d points from a %d B column", label, served, after.ColumnBytes)
			}
			continue
		}
		if served != uint64(len(want)) || after.Floorplan != before.Floorplan {
			t.Fatalf("%s: re-walk served %d of %d points from the column; floorplan work %v -> %v",
				label, served, len(want), before.Floorplan, after.Floorplan)
		}
	}
}

// A single-point walk (an EvalPoint what-if) never arms the memo: every
// permutation of the identical dies' nodes is one area multiset, which an
// armed scratch would serve from the memo after its first point.
func TestFloorplanMemoSkipsSinglePoints(t *testing.T) {
	d := db()
	rng := rand.New(rand.NewSource(5))
	nodes := []int{7, 14, 28}
	base := identicalDieSystem(rng, d, pkgcarbon.SiliconBridge, 8, 6)
	plan, err := Compile(base, d, nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Combos() <= fullColumnPoints || plan.fpMemoSlots == 0 {
		t.Fatalf("%d points, %d memo slots: the plan would not arm the memo on a multi-point walk", plan.Combos(), plan.fpMemoSlots)
	}
	want, err := NodeSweepReference(context.Background(), base, d, nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// The identical dies take one 28 nm node in turn; the others stay put.
	assignment := make([]int, len(base.Chiplets))
	for i := range assignment {
		assignment[i] = nodes[i%2]
	}
	for k := 0; k < 6; k++ {
		a := append([]int(nil), assignment...)
		for i := 0; i < 6; i++ {
			a[i] = 7
		}
		a[k] = 28
		pt, err := plan.EvalPoint(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, w := range want {
			if slices.Equal(w.Nodes, a) {
				found = pointsBitIdentical(pt, w)
				break
			}
		}
		if !found {
			t.Fatalf("EvalPoint %v differs from the reference", a)
		}
	}
	if st := plan.Stats(); st.Floorplan.MemoHits != 0 {
		t.Fatalf("single-point walks served memo hits: %v", st.Floorplan)
	}
}

// A system of distinct dies has one area multiset per point, so its
// plans never arm the memo, however large.
func TestFloorplanMemoNeverArmsOnMixedDies(t *testing.T) {
	d := db()
	rng := rand.New(rand.NewSource(12))
	base := identicalDieSystem(rng, d, pkgcarbon.SiliconBridge, 8, 0)
	plan, err := Compile(base, d, []int{7, 14, 28}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Combos() <= fullColumnPoints {
		t.Fatalf("%d points do not exceed the full package column", plan.Combos())
	}
	if plan.fpMemoSlots != 0 {
		t.Fatalf("distinct dies sized a %d-slot floorplan memo", plan.fpMemoSlots)
	}
	if _, err := plan.RunCtx(context.Background(), engine.WithWorkers(2)); err != nil {
		t.Fatal(err)
	}
	if st := plan.Stats(); st.Floorplan.MemoHits != 0 {
		t.Fatalf("an unarmed sweep served memo hits: %v", st.Floorplan)
	}
}
