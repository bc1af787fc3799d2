package explore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/pkgcarbon"
)

// columnCase is one plan of the package-column suites.
type columnCase struct {
	arch     pkgcarbon.Architecture
	flexible bool
	nc       int // 5 chiplets over 3 nodes: 243 points (full column); 8: 6561 (area column)
}

func (c columnCase) String() string {
	return fmt.Sprintf("%v flexible=%v %d dies", c.arch, c.flexible, c.nc)
}

// columnCases covers every architecture plus a flexible floorplan, on
// plans of at most and of more than fullColumnPoints points.
func columnCases(short bool) []columnCase {
	var cs []columnCase
	for _, nc := range []int{5, 8} {
		for _, arch := range pkgcarbon.Architectures {
			cs = append(cs, columnCase{arch: arch, nc: nc})
		}
		cs = append(cs, columnCase{arch: pkgcarbon.SiliconBridge, flexible: true, nc: nc})
	}
	if short {
		// The two silicon-bridge plans with fixed shapes; the flexible
		// 8-die reference sweep alone takes seconds.
		return []columnCase{cs[1], cs[len(cs)/2+1]}
	}
	return cs
}

// columnSystem builds a case's system: distinct dies apart from two
// identical ones, so large plans also arm the floorplan memo.
func columnSystem(rng *rand.Rand, c columnCase) *core.System {
	base := identicalDieSystem(rng, db(), c.arch, c.nc, 2)
	base.Packaging.FlexibleFloorplan = c.flexible
	return base
}

// wantColumnBytes is the column size a case's plan must publish.
func wantColumnBytes(c columnCase, points int) int {
	switch {
	case points <= fullColumnPoints:
		return 32 * points
	case c.arch == pkgcarbon.ThreeD:
		return 0
	case c.arch == pkgcarbon.SiliconBridge:
		return 12 * points
	}
	return 8 * points
}

// checkAll reports the first point of got that is not bit-identical to
// want at the same slot.
func checkAll(want, got []Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		if !pointsBitIdentical(got[i], want[i]) {
			return fmt.Errorf("point %d differs\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
	return nil
}

// After a first RunCtx publishes the column, every walk kind — the
// Pareto fold, a streaming Walk, shuffled WalkRange segments and
// EvalPoint — must return the reference's exact float bits, served from
// the column without reaching the floorplanner (none of the re-walks
// adds floorplan work). The column must have the documented size.
func TestPackageColumnServesEveryWalkKind(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4242))
	nodes := []int{7, 14, 28}
	cp := cost.DefaultParams()
	for _, c := range columnCases(testing.Short()) {
		base := columnSystem(rng, c)
		want, err := NodeSweepReference(ctx, base, db(), nodes, cp, engine.WithWorkers(2))
		if err != nil {
			t.Fatalf("%v: reference: %v", c, err)
		}
		plan, err := Compile(base, db(), nodes, cp)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		got, err := plan.RunCtx(ctx, engine.WithWorkers(2))
		if err != nil {
			t.Fatalf("%v: RunCtx: %v", c, err)
		}
		if err := checkAll(want, got); err != nil {
			t.Fatalf("%v: first RunCtx: %v", c, err)
		}
		first := plan.Stats()
		n := uint64(len(want))
		if first.PkgMemo.Misses != n || first.PkgMemo.Hits != 0 || first.PkgMemo.Collisions != 0 {
			t.Fatalf("%v: first walk counters %+v, want %d misses only", c, first.PkgMemo, n)
		}
		if wb := wantColumnBytes(c, len(want)); first.ColumnBytes != wb {
			t.Fatalf("%v: %d B column for %d points, want %d", c, first.ColumnBytes, len(want), wb)
		}
		served := first.ColumnBytes > 0

		objectives := []Metric{ByEmbodied, ByCost}
		front, total, err := plan.ParetoFrontCtx(ctx, objectives, engine.WithWorkers(2))
		if err != nil {
			t.Fatalf("%v: ParetoFrontCtx: %v", c, err)
		}
		if err := checkAll(ParetoFront(want, objectives...), front); err != nil || total != len(want) {
			t.Fatalf("%v: front (total %d): %v", c, total, err)
		}

		walked := make([]Point, len(want))
		var mu sync.Mutex
		err = plan.Walk(ctx, func(idx int, pt *Point) error {
			cp := *pt
			cp.Nodes = append([]int(nil), pt.Nodes...)
			mu.Lock()
			walked[idx] = cp
			mu.Unlock()
			return nil
		}, engine.WithWorkers(2))
		if err != nil {
			t.Fatalf("%v: Walk: %v", c, err)
		}
		if err := checkAll(want, walked); err != nil {
			t.Fatalf("%v: Walk: %v", c, err)
		}

		var cuts []int
		for k := 0; k < len(want); k += 1 + rng.Intn(700) {
			cuts = append(cuts, k)
		}
		cuts = append(cuts, len(want))
		ranged := make([]Point, len(want))
		for _, s := range rng.Perm(len(cuts) - 1) {
			err := plan.WalkRange(ctx, cuts[s], cuts[s+1], func(idx int, pt *Point) error {
				ranged[idx] = *pt
				ranged[idx].Nodes = append([]int(nil), pt.Nodes...)
				return nil
			})
			if err != nil {
				t.Fatalf("%v: WalkRange: %v", c, err)
			}
		}
		if err := checkAll(want, ranged); err != nil {
			t.Fatalf("%v: WalkRange: %v", c, err)
		}

		evals := 0
		for i := 0; i < len(want); i += 1 + rng.Intn(40) {
			pt, err := plan.EvalPoint(ctx, want[i].Nodes)
			if err != nil {
				t.Fatalf("%v: EvalPoint: %v", c, err)
			}
			if !pointsBitIdentical(pt, want[i]) {
				t.Fatalf("%v: EvalPoint slot %d differs\nwant %+v\ngot  %+v", c, i, want[i], pt)
			}
			evals++
		}

		last := plan.Stats()
		rewalked := 3*n + uint64(evals)
		if !served {
			if last.PkgMemo.Hits != 0 || last.PkgMemo.Misses != n+rewalked {
				t.Fatalf("%v: a plan without a column counted %+v", c, last.PkgMemo)
			}
			continue
		}
		if last.PkgMemo.Hits != rewalked || last.PkgMemo.Misses != n {
			t.Fatalf("%v: re-walks counted %+v, want %d hits and %d misses", c, last.PkgMemo, rewalked, n)
		}
		if last.Floorplan != first.Floorplan {
			t.Fatalf("%v: column-served re-walks ran the floorplanner: %v -> %v", c, first.Floorplan, last.Floorplan)
		}
	}
}

// noGC stops automatic collection for the rest of the test: a column
// being filled is held only by its walks and a weak pointer, so the
// suites that count served points collect only where they say so.
func noGC(t *testing.T) {
	t.Helper()
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// filling reports the number of ready slots of the column the plan is
// filling (or holds complete but unpinned), -1 if it has none.
func filling(p *CompiledPlan) int {
	if wp := p.part.Load(); wp != nil {
		if f := wp.Value(); f != nil {
			return int(f.stored.Load())
		}
	}
	return -1
}

// walkSegments walks the plan as shuffled 50-point WalkRange segments,
// checking every point against want.
func walkSegments(ctx context.Context, rng *rand.Rand, plan *CompiledPlan, want []Point) error {
	for _, s := range rng.Perm((len(want) + 49) / 50) {
		lo, hi := 50*s, min(50*s+50, len(want))
		err := plan.WalkRange(ctx, lo, hi, func(idx int, pt *Point) error {
			if !pointsBitIdentical(*pt, want[idx]) {
				return fmt.Errorf("WalkRange [%d,%d) point %d differs", lo, hi, idx)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// A column is pinned when its last slot is filled, by whatever walk
// fills it. EvalPoint never starts a column, and WalkRange segments
// start one only on plans of at most fullColumnPoints points. A whole
// walk cancelled mid-way pins nothing; the slots it filled serve later
// walks, which fill the rest and pin the column, until the collector
// reclaims the unfinished column. Every walk returns the reference's
// exact bits.
func TestPackageColumnPinnedWhenComplete(t *testing.T) {
	noGC(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	nodes := []int{7, 14, 28}
	cp := cost.DefaultParams()
	for _, c := range []columnCase{{arch: pkgcarbon.RDLFanout, nc: 5}, {arch: pkgcarbon.SiliconBridge, nc: 8}} {
		base := columnSystem(rng, c)
		want, err := NodeSweepReference(ctx, base, db(), nodes, cp)
		if err != nil {
			t.Fatalf("%v: reference: %v", c, err)
		}
		n := len(want)
		small := n <= fullColumnPoints
		compile := func() *CompiledPlan {
			t.Helper()
			plan, err := Compile(base, db(), nodes, cp)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			return plan
		}
		pinnedBytes := func(plan *CompiledPlan, step string, wantBytes int) {
			t.Helper()
			if b := plan.Stats().ColumnBytes; b != wantBytes {
				t.Fatalf("%v: after %s the pinned column holds %d B, want %d", c, step, b, wantBytes)
			}
		}
		full := wantColumnBytes(c, n)

		plan := compile()
		for k := 0; k < 20; k++ {
			i := rng.Intn(n)
			pt, err := plan.EvalPoint(ctx, want[i].Nodes)
			if err != nil || !pointsBitIdentical(pt, want[i]) {
				t.Fatalf("%v: EvalPoint slot %d: %v\nwant %+v\ngot  %+v", c, i, err, want[i], pt)
			}
		}
		if f := filling(plan); f != -1 || plan.Stats().PkgMemo.Hits != 0 {
			t.Fatalf("%v: EvalPoint started a column (%d slots, %+v)", c, f, plan.Stats().PkgMemo)
		}

		// WalkRange segments of a fresh plan: a small plan's column is
		// filled and pinned by them, a large plan's is never started.
		if err := walkSegments(ctx, rng, plan, want); err != nil {
			t.Fatalf("%v: fresh plan: %v", c, err)
		}
		if small {
			pinnedBytes(plan, "WalkRange segments", full)
		} else if f := filling(plan); f != -1 {
			t.Fatalf("%v: WalkRange segments started a %d-point column", c, n)
		}

		// cancel walks a fresh plan and cancels it after 100 points.
		cancel := func() (*CompiledPlan, int) {
			t.Helper()
			plan := compile()
			cctx, stop := context.WithCancel(ctx)
			visited := 0
			err := plan.Walk(cctx, func(int, *Point) error {
				if visited++; visited == 100 {
					stop()
				}
				return nil
			}, engine.WithWorkers(1))
			stop()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: cancelled Walk returned %v", c, err)
			}
			pinnedBytes(plan, "a cancelled walk", 0)
			f := filling(plan)
			if f < 100 || f >= n {
				t.Fatalf("%v: a walk cancelled after 100 points filled %d of %d slots", c, f, n)
			}
			return plan, f
		}

		// The unfinished column is collectable: after a collection the
		// next walk finds nothing to serve.
		plan, _ = cancel()
		runtime.GC()
		if f := filling(plan); f != -1 {
			t.Fatalf("%v: a collection left an unused %d-slot column", c, f)
		}

		// Otherwise its slots serve, whole walk or segments alike, and
		// the walk that fills the rest pins it.
		for _, kind := range []string{"RunCtx", "WalkRange segments"} {
			plan, f := cancel()
			before := plan.Stats().PkgMemo
			if kind == "RunCtx" {
				got, err := plan.RunCtx(ctx, engine.WithWorkers(2))
				if err == nil {
					err = checkAll(want, got)
				}
				if err != nil {
					t.Fatalf("%v: RunCtx after a cancelled walk: %v", c, err)
				}
			} else if err := walkSegments(ctx, rng, plan, want); err != nil {
				t.Fatalf("%v: segments after a cancelled walk: %v", c, err)
			}
			after := plan.Stats().PkgMemo
			if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != uint64(f) || misses != uint64(n-f) || after.Collisions != 0 {
				t.Fatalf("%v: %s after a walk that filled %d slots served %d and estimated %d (%+v)", c, kind, f, hits, misses, after)
			}
			pinnedBytes(plan, kind, full)

			hits := plan.Stats().PkgMemo.Hits
			got, err := plan.RunCtx(ctx, engine.WithWorkers(2))
			if err == nil {
				err = checkAll(want, got)
			}
			if err != nil {
				t.Fatalf("%v: RunCtx of a pinned column: %v", c, err)
			}
			if served := plan.Stats().PkgMemo.Hits - hits; served != uint64(n) {
				t.Fatalf("%v: a RunCtx of a pinned column served %d of %d points", c, served, n)
			}
		}
	}
}

// The process column budget bounds the pinned columns: a column
// completed without room serves walks only until it is collected, and
// a collected plan returns its pinned column's bytes to the budget.
func TestPackageColumnBudget(t *testing.T) {
	noGC(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	c := columnCase{arch: pkgcarbon.PassiveInterposer, nc: 5}
	base := columnSystem(rng, c)
	nodes := []int{7, 14, 28}
	want, err := NodeSweepReference(ctx, base, db(), nodes, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n, size := len(want), int64(wantColumnBytes(c, len(want)))
	run := func() *CompiledPlan {
		t.Helper()
		plan, err := Compile(base, db(), nodes, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.RunCtx(ctx, engine.WithWorkers(2))
		if err == nil {
			err = checkAll(want, got)
		}
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	served := func(plan *CompiledPlan) uint64 {
		t.Helper()
		before := plan.Stats().PkgMemo.Hits
		front, _, err := plan.ParetoFrontCtx(ctx, []Metric{ByEmbodied, ByCost})
		if err == nil {
			err = checkAll(ParetoFront(want, ByEmbodied, ByCost), front)
		}
		if err != nil {
			t.Fatal(err)
		}
		return plan.Stats().PkgMemo.Hits - before
	}
	// settle collects until the pinned bytes reach want (cleanups run
	// after the collection that finds their column unreachable).
	settle := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for pinned.used.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("pinned column bytes %d, want %d", pinned.used.Load(), want)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	// Columns of earlier plans may still be awaiting their cleanups:
	// collect until the pinned bytes hold still.
	base0 := int64(-1)
	for still := 0; still < 3; {
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
		if u := pinned.used.Load(); u != base0 {
			base0, still = u, 0
		} else {
			still++
		}
	}

	old := SetColumnBudget(base0)
	defer SetColumnBudget(old)
	plan := run()
	if b := plan.Stats().ColumnBytes; b != 0 {
		t.Fatalf("a full budget pinned a %d B column", b)
	}
	if got := served(plan); got != uint64(n) {
		t.Fatalf("an unpinned complete column served %d of %d points before a collection", got, n)
	}
	runtime.GC()
	if got := served(plan); got != 0 {
		t.Fatalf("an unpinned column served %d points after a collection", got)
	}

	SetColumnBudget(base0 + size)
	plan = run()
	if b := plan.Stats().ColumnBytes; int64(b) != size {
		t.Fatalf("pinned %d B, want %d", b, size)
	}
	if other := run(); other.Stats().ColumnBytes != 0 {
		t.Fatal("a second column was pinned past the budget")
	}
	runtime.KeepAlive(plan)
	plan = nil
	settle(base0)
	if again := run(); int64(again.Stats().ColumnBytes) != size {
		t.Fatal("a collected plan's column bytes were not returned to the budget")
	}
}

// Concurrent walks of a fresh plan — whole walks and WalkRange segments
// — race to fill its column: each slot is kept once, a walk that
// estimates a slot another claimed first counts a collision, and every
// walk returns the reference's exact bits. Run under -race.
func TestPackageColumnConcurrentWholeWalks(t *testing.T) {
	noGC(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(91))
	nodes := []int{7, 14, 28}
	cp := cost.DefaultParams()
	for _, c := range []columnCase{{arch: pkgcarbon.PassiveInterposer, nc: 5}, {arch: pkgcarbon.SiliconBridge, nc: 8}} {
		base := columnSystem(rng, c)
		want, err := NodeSweepReference(ctx, base, db(), nodes, cp)
		if err != nil {
			t.Fatalf("%v: reference: %v", c, err)
		}
		wantFront := ParetoFront(want, ByEmbodied, ByCost)
		plan, err := Compile(base, db(), nodes, cp)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		const walkers = 4
		errs := make([]error, walkers)
		var wg sync.WaitGroup
		for w := 0; w < walkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for round := 0; round < 2; round++ {
					var err error
					switch (w + round) % 3 {
					case 0:
						var got []Point
						if got, err = plan.RunCtx(ctx, engine.WithWorkers(2)); err == nil {
							err = checkAll(want, got)
						}
					case 1:
						var front []Point
						if front, _, err = plan.ParetoFrontCtx(ctx, []Metric{ByEmbodied, ByCost}, engine.WithWorkers(2)); err == nil {
							err = checkAll(wantFront, front)
						}
					default:
						err = walkSegments(ctx, rand.New(rand.NewSource(int64(w))), plan, want)
					}
					if err != nil {
						errs[w] = fmt.Errorf("walker %d round %d: %w", w, round, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
		}
		s := plan.Stats()
		n := uint64(len(want))
		if s.ColumnBytes != wantColumnBytes(c, len(want)) {
			t.Fatalf("%v: %d B column after concurrent walks", c, s.ColumnBytes)
		}
		// Every slot is stored once. On a large plan, segments that find
		// no column yet estimate without storing (misses, no collision).
		stored := s.PkgMemo.Misses - s.PkgMemo.Collisions
		if s.PkgMemo.Hits+s.PkgMemo.Misses != 2*walkers*n || stored < n || (len(want) <= fullColumnPoints && stored != n) {
			t.Fatalf("%v: counters %+v over %d walks of %d points", c, s.PkgMemo, 2*walkers, n)
		}
	}
}
