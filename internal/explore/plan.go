package explore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"weak"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/engine"
	"ecochip/internal/floorplan"
	"ecochip/internal/kernel"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
)

// This file implements compiled sweep plans: the "compile once, stream
// cheap per-point deltas" evaluation of a full-factorial node sweep.
//
// The heavy lifting lives in internal/kernel: kernel.BuildTable
// precomputes the dense nc × len(nodes) table of per-(chiplet, node)
// invariants — area, manufacturing result, design carbon, NRE share, die
// dollar cost — so the hot loop replaces per-point cloning,
// re-validation, mutex-guarded memo lookups and sub-model calls with
// array indexing, and kernel.Scratch carries each worker's reusable
// arena (packaging estimator, chiplet descriptors, operational-term
// memo). This file owns the sweep-specific parts: combinations are
// enumerated in mixed-radix reflected Gray-code order, so successive
// points differ in exactly one chiplet — each step refreshes only the
// changed chiplet's scratch state — and the result is addressed by the
// point's mixed-radix output slot so the point order is identical to the
// historical recursive walk.
//
// One deliberate deviation from a textbook incremental evaluator: the
// per-point metric totals are NOT maintained as running sums patched by
// "new − old" deltas. Floating-point addition is not associative, so a
// patched running sum drifts from the in-order sum the uncompiled path
// computes, and the contract here is bit-identical output (guarded by
// the randomized equivalence test). Instead each point re-reduces its
// nc table cells in chiplet order — an O(nc) handful of adds that is
// noise next to the per-point floorplan — which preserves exact float
// parity while the Gray walk keeps every other per-point cost flat.

// ErrNoFastPath reports that a system cannot be compiled into a dense
// sweep plan and callers should fall back to the per-point reference
// path. Today this only covers multi-chiplet monolithic bases, whose
// sweeps are degenerate (every mixed-node combination fails validation).
var ErrNoFastPath = errors.New("explore: system has no compiled fast path")

// SweepStats counts the work a compiled plan performed; the CLI surfaces
// it under -progress next to the engine cache statistics.
type SweepStats struct {
	// Points is the number of design points evaluated from the table.
	Points uint64
	// BlockInits is the number of Gray walks started (one per worker
	// block): points whose full scratch state was built from scratch.
	BlockInits uint64
	// GraySteps is the number of incremental single-chiplet steps; all
	// other scratch state was reused from the previous point.
	GraySteps uint64
	// ColumnFolds is the number of per-point metric folds served from
	// the table's struct-of-arrays columns (every compiled point).
	ColumnFolds uint64
	// TableCells is the size of the precomputed die table.
	TableCells int
	// TableAoSBytes and TableSoABytes are the resident bytes of the
	// table's array-of-structs view (DieCell rows plus dollar rows) and
	// of the flat struct-of-arrays columns the folds actually read.
	TableAoSBytes, TableSoABytes int
	// Floorplan aggregates the per-worker incremental-floorplan
	// counters: how many packaging estimates were served by a retained-
	// tree fast path versus a full rebuild, and the mean relayout depth.
	Floorplan floorplan.TreeStats
	// PkgMemo counts the points served from the plan's package column
	// (Hits) against those estimated through the floorplanner (Misses).
	PkgMemo kernel.PkgMemoStats
	// ColumnBytes is the size of the package column pinned on the plan
	// (0 until walks complete it and the column budget pins it).
	ColumnBytes int
}

// CompiledPlan is a compiled node sweep: the dense per-(chiplet, node)
// invariant table plus everything point evaluation needs. Compile it
// once, run it any number of times; a plan is safe for concurrent use,
// and immutable after Compile apart from its package column, which its
// walks fill (see column.go).
type CompiledPlan struct {
	tbl *kernel.Table

	nodes []int
	nc    int // chiplets in the base system
	r     int // candidate nodes (the mixed radix)

	combos int
	weight []int // weight[i] = r^(nc-1-i): chiplet 0 is the most significant digit

	// monolith selects the single-die evaluation path (single-chiplet or
	// monolithic bases): no packaging, no communication fabric.
	monolith bool

	// fpMemoSlots is the permutation-invariant floorplan memo size long
	// walks arm their scratches with (see walkBlock); 0 = never armed.
	fpMemoSlots int

	// scratches pools per-worker evaluation arenas across runs of this
	// plan, so retained state — the estimator's floorplan tree, its
	// communication cells and package-term memo — survives from one
	// request to the next. A re-walk of the same block then starts on a
	// warm tree (often the Unchanged fast path) instead of rebuilding
	// it. Safe because the plan is immutable and every retained cache
	// verifies or is keyed by its exact inputs.
	scratches sync.Pool

	// keepsColumn reports that walks fill a package column (see
	// column.go); col is the column pinned on the plan, part a weak
	// pointer to the one being filled (or complete but not pinned).
	keepsColumn bool
	col         atomic.Pointer[pkgColumn]
	part        atomic.Pointer[weak.Pointer[columnFill]]

	points, blockInits, graySteps     atomic.Uint64
	colHits, colMisses, colCollisions atomic.Uint64
	// Folded floorplan.TreeStats of the per-block estimator scratches.
	fpMu     sync.Mutex
	fpTotals floorplan.TreeStats
}

// Compile builds the sweep plan for evaluating base under every
// combination of the candidate nodes. It performs every node-independent
// computation and every per-(chiplet, node) sub-model call exactly once
// (see kernel.BuildTable); errors any point of the sweep would hit
// (invalid base description, unsupported candidate node, sub-model
// domain violations, missing cost table entries) surface here instead of
// mid-sweep.
func Compile(base *core.System, db *tech.DB, nodes []int, cp cost.Params) (*CompiledPlan, error) {
	// BuildTable owns the shared preconditions (non-empty node list,
	// system validation, node membership); Compile adds only the
	// sweep-specific ones.
	nc := len(base.Chiplets)
	combos, err := comboCount(len(nodes), nc)
	if err != nil {
		return nil, err
	}
	if base.Monolithic && nc > 1 {
		return nil, ErrNoFastPath
	}
	tbl, err := kernel.BuildTable(base, db, nodes, cp)
	if err != nil {
		return nil, err
	}

	p := &CompiledPlan{
		tbl:      tbl,
		nodes:    tbl.Nodes,
		nc:       nc,
		r:        len(nodes),
		combos:   combos,
		monolith: tbl.Monolith,
	}
	// The floorplan memo is armed only where it can pay for its table:
	// on identical dies (the table reports a slot bound), and on plans
	// whose column keeps less than the whole package term — a smaller
	// plan's re-walks are folds, and serving-sized caches of many small
	// plans would carry one table per pooled scratch.
	if combos > fullColumnPoints {
		p.fpMemoSlots = tbl.FloorplanMemoSlots()
	}
	p.keepsColumn = !p.monolith && (combos <= fullColumnPoints || base.Packaging.Arch != pkgcarbon.ThreeD)
	p.weight = make([]int, nc)
	w := 1
	for i := nc - 1; i >= 0; i-- {
		p.weight[i] = w
		w *= p.r
	}
	return p, nil
}

// Combos returns the number of design points the plan enumerates.
func (p *CompiledPlan) Combos() int { return p.combos }

// Nodes returns the candidate node list the plan was compiled for.
func (p *CompiledPlan) Nodes() []int { return append([]int(nil), p.nodes...) }

// Stats snapshots the plan's work counters (cumulative across runs).
func (p *CompiledPlan) Stats() SweepStats {
	p.fpMu.Lock()
	fp := p.fpTotals
	p.fpMu.Unlock()
	aos, soa := p.tbl.LayoutBytes()
	pts := p.points.Load()
	return SweepStats{
		Points:     pts,
		BlockInits: p.blockInits.Load(),
		GraySteps:  p.graySteps.Load(),
		// Every compiled point reduces through the SoA row buffers, so
		// the fold count is the point count by construction.
		ColumnFolds:   pts,
		TableCells:    len(p.tbl.Cells) * p.r,
		TableAoSBytes: aos,
		TableSoABytes: soa,
		Floorplan:     fp,
		PkgMemo: kernel.PkgMemoStats{
			Hits:       p.colHits.Load(),
			Misses:     p.colMisses.Load(),
			Collisions: p.colCollisions.Load(),
		},
		ColumnBytes: p.col.Load().bytes(),
	}
}

// Run evaluates every point of the plan with default engine options.
func (p *CompiledPlan) Run() ([]Point, error) {
	return p.RunCtx(context.Background())
}

// RunCtx evaluates every point of the plan: workers walk contiguous
// Gray-code blocks of the combination sequence and write each point into
// its mixed-radix slot, so the output order (and every float in it) is
// identical to NodeSweepReference at any worker count.
func (p *CompiledPlan) RunCtx(ctx context.Context, opts ...engine.Option) ([]Point, error) {
	results := make([]Point, p.combos)
	cw := p.columnFor(true)
	err := engine.RunBlocks(ctx, p.combos, func(ctx context.Context, lo, hi int, tick func()) error {
		return p.walkBlock(ctx, lo, hi, func(idx int, pt *Point) error {
			cp := *pt
			cp.Nodes = append([]int(nil), pt.Nodes...)
			results[idx] = cp
			return nil
		}, tick, cw)
	}, opts...)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Walk evaluates every point of the plan and streams each to visit
// without materializing a result slice — the batch shape of
// million-point serving scenarios, where the caller folds points into a
// running reduction (a Pareto front, a histogram, a wire encoder) as
// they are produced. visit is called concurrently from the worker
// goroutines (one walker per contiguous Gray-code block); within a block
// calls arrive in walk order, and idx is the point's mixed-radix output
// slot — its index in the RunCtx result slice. The *Point (including its
// Nodes slice) is owned by the walker and reused after visit returns:
// copy what must be retained. A visit error cancels the walk.
func (p *CompiledPlan) Walk(ctx context.Context, visit func(idx int, pt *Point) error, opts ...engine.Option) error {
	cw := p.columnFor(true)
	return engine.RunBlocks(ctx, p.combos, func(ctx context.Context, lo, hi int, tick func()) error {
		return p.walkBlock(ctx, lo, hi, visit, tick, cw)
	}, opts...)
}

// WalkRange walks the contiguous sequence segment [lo, hi) of the
// plan's Gray-code combination order serially on the calling goroutine,
// streaming each point to visit exactly as Walk does (idx is the
// point's mixed-radix output slot — NOT its sequence position; a
// contiguous sequence segment covers a scattered but deterministic set
// of output slots). It is the resumable unit of a sharded sweep: any
// party that compiled the same plan can walk any segment and the
// streamed points are bit-identical to the corresponding points of a
// full Walk, so segments can be computed remotely, retried after
// failures and reassembled in any order. A segment reads and fills the
// plan's package column; one of two or more points starts a column on
// plans of at most 4096 points (see column.go). The *Point is reused
// after visit returns; copy what must be retained.
func (p *CompiledPlan) WalkRange(ctx context.Context, lo, hi int, visit func(idx int, pt *Point) error) error {
	if lo < 0 || hi > p.combos || lo > hi {
		return fmt.Errorf("explore: WalkRange [%d,%d) outside the %d-point plan", lo, hi, p.combos)
	}
	if lo == hi {
		return ctx.Err()
	}
	cw := p.columnFor(hi-lo > 1 && p.combos <= fullColumnPoints)
	return p.walkBlock(ctx, lo, hi, visit, func() {}, cw)
}

// ParetoFrontCtx runs the plan and reduces the sweep to its Pareto front
// under the given objectives, returning the front and the total number
// of evaluated points. The reduction is folded into the sweep walk: each
// worker block maintains its own skyline front over the points it
// streams (storing objective values and output slots, not points), the
// block fronts are merged at the barrier, and only then are the
// surviving points materialized — front-only callers never allocate the
// full point slice. The returned front is identical to
// ParetoFront(RunCtx(...), objectives...).
func (p *CompiledPlan) ParetoFrontCtx(ctx context.Context, objectives []Metric, opts ...engine.Option) ([]Point, int, error) {
	if len(objectives) == 0 {
		panic("explore: ParetoFront needs at least one objective")
	}
	var mu sync.Mutex
	var merged []FrontEntry
	cw := p.columnFor(true)
	err := engine.RunBlocks(ctx, p.combos, func(ctx context.Context, lo, hi int, tick func()) error {
		local := NewFrontFold(len(objectives))
		err := p.walkBlock(ctx, lo, hi, func(idx int, pt *Point) error {
			local.Add(idx, pt, objectives)
			return nil
		}, tick, cw)
		if err != nil {
			return err
		}
		mu.Lock()
		merged = append(merged, local.Entries()...)
		mu.Unlock()
		return nil
	}, opts...)
	if err != nil {
		return nil, 0, err
	}
	// Globally dominated survivors of one block are eliminated by the
	// final ParetoFront pass; FrontPoints restores output-slot order
	// first, so the pass sees candidates exactly as the materializing
	// path would and ties and duplicates resolve identically.
	_, points := p.FrontPoints(merged)
	return ParetoFront(points, objectives...), p.combos, nil
}

// blockScratch is one worker's reusable per-point state: the Gray-code
// odometer buffers, the reusable output point, and the kernel arena
// (packaging estimator with its retained floorplan tree, chiplet
// descriptors, operational-term memo). Scratches are pooled on the plan
// and survive across runs; folded records the floorplan counters
// already folded into the plan totals, so each release folds only the
// increment.
type blockScratch struct {
	digits []int // current Gray digits (indices into plan.nodes)
	std    []int // standard mixed-radix digits of the current index
	par    []int // parity of the standard value of the digits above i
	picked []int // reusable Point.Nodes buffer
	// rows is the current point's per-chiplet metric entries, gathered
	// from the table's SoA columns: five dense nc-length slices packed
	// in one backing array (mfg, design, NRE kg, die USD, NRE USD). A
	// block init fills every row; a Gray step refreshes only the changed
	// chiplet's five entries, and evalInto reduces the slices
	// sequentially in chiplet order — the same additions in the same
	// order as the old Cells walk, over memory that is contiguous
	// instead of strided through 8-field structs.
	rows                           []float64
	rowMfg, rowDes, rowNre, rowUSD []float64
	rowNREUSD                      []float64
	pt                             Point
	sc                             *kernel.Scratch
	// estValid reports that the kernel scratch's packaging estimator
	// planned the previous point of the current walk, so a Gray step may
	// take the single-changed-chiplet delta path. A point finished from
	// the column's package area skips the floorplanner and clears it.
	estValid bool
	// serve is the complete package column the current walk reads, fill
	// the one it fills (see column.go); nil outside a walk. served and
	// collided count the block's points served from either and those
	// whose slot another walk claimed first.
	serve            *pkgColumn
	fill             *columnFill
	served, collided uint64
	folded           floorplan.TreeStats
}

// refreshRow regathers chiplet row i's five metric entries for node
// digit d from the table columns.
func (sc *blockScratch) refreshRow(c *kernel.Cols, i, d int) {
	k := i*c.Stride + d
	sc.rowMfg[i] = c.MfgKg[k]
	sc.rowDes[i] = c.DesignKg[k]
	sc.rowNre[i] = c.NREKg[k]
	sc.rowUSD[i] = c.DieUSD[k]
	sc.rowNREUSD[i] = c.NREUSD[d]
}

// getScratch takes a pooled worker scratch or builds a fresh one and
// readies it for a walk of n points: the package column to read or
// fill, and the floorplan memo armed on walks of at least minMemoWalk
// points of plans that sized one. (Done here rather than in walkBlock,
// whose stack frame is kept small: a larger one forces a goroutine
// stack copy per RunBlocks worker.)
func (p *CompiledPlan) getScratch(n int, cw colWalk) (*blockScratch, error) {
	sc, _ := p.scratches.Get().(*blockScratch)
	if sc == nil {
		var err error
		if sc, err = p.newScratch(); err != nil {
			return nil, err
		}
	}
	sc.serve, sc.fill = cw.serve, cw.fill
	sc.served, sc.collided = 0, 0
	if p.fpMemoSlots > 0 && n >= minMemoWalk && sc.serve == nil {
		sc.sc.ArmFloorplanMemo(p.fpMemoSlots)
	}
	return sc, nil
}

// newScratch builds a worker scratch for the plan.
func (p *CompiledPlan) newScratch() (*blockScratch, error) {
	ksc, err := p.tbl.NewScratch()
	if err != nil {
		return nil, err
	}
	rows := make([]float64, 5*p.nc)
	return &blockScratch{
		digits:    make([]int, p.nc),
		std:       make([]int, p.nc),
		par:       make([]int, p.nc),
		picked:    make([]int, p.nc),
		rows:      rows,
		rowMfg:    rows[0*p.nc : 1*p.nc],
		rowDes:    rows[1*p.nc : 2*p.nc],
		rowNre:    rows[2*p.nc : 3*p.nc],
		rowUSD:    rows[3*p.nc : 4*p.nc],
		rowNREUSD: rows[4*p.nc : 5*p.nc],
		sc:        ksc,
	}, nil
}

// putScratch folds the scratch's new floorplan work into the plan
// totals and returns it to the pool.
func (p *CompiledPlan) putScratch(sc *blockScratch) {
	if !p.monolith {
		cur := sc.sc.FloorplanStats()
		p.fpMu.Lock()
		p.fpTotals.Add(cur.Delta(sc.folded))
		p.fpMu.Unlock()
		sc.folded = cur
	}
	sc.serve, sc.fill = nil, nil
	p.scratches.Put(sc)
}

// minMemoWalk is the shortest walk that arms the floorplan memo. Only
// a single-point walk (an EvalPoint what-if) stays unarmed: it would
// allocate the table for one lookup. The table lives in the pooled
// scratch and keeps its entries across walks, so short walks such as a
// shard replica's 512-point blocks share it and do repay it.
const minMemoWalk = 2

// walkBlock walks the Gray-code segment [lo, hi) of the combination
// sequence, streaming each evaluated point (and its output slot) to
// visit from a block-local scratch. Each Gray step names the single
// changed chiplet, and the packaging estimate for the point runs
// through the kernel scratch's delta path: the retained floorplan tree
// relayouts only that chiplet's dirty path instead of re-planning. The
// package column cw names replaces the estimate's floorplan work for
// every slot it holds, and a column being filled keeps the rest.
func (p *CompiledPlan) walkBlock(ctx context.Context, lo, hi int, visit func(idx int, pt *Point) error, tick func(), cw colWalk) error {
	sc, err := p.getScratch(hi-lo, cw)
	if err != nil {
		return err
	}
	defer p.putScratch(sc)

	p.grayInit(lo, sc)
	pkgCh := sc.sc.Chiplets()
	cols := p.tbl.Cols()
	out := 0
	for i, d := range sc.digits {
		out += d * p.weight[i]
		sc.refreshRow(cols, i, d)
		if !p.monolith {
			pkgCh[i] = pkgcarbon.Chiplet{Name: p.tbl.Names[i], AreaMM2: cols.AreaMM2[i*cols.Stride+d], Node: p.tbl.Cells[i][d].Node}
		}
	}
	p.blockInits.Add(1)
	steps := uint64(0)

	for k := lo; k < hi; k++ {
		// The first point of a block builds its full scratch state.
		changed := -1
		if k > lo {
			// Successive Gray codes differ in exactly one digit: refresh
			// only that chiplet's scratch state and output weight.
			j, old, d := p.grayStep(sc)
			out += (d - old) * p.weight[j]
			sc.refreshRow(cols, j, d)
			if !p.monolith {
				pkgCh[j].AreaMM2, pkgCh[j].Node = cols.AreaMM2[j*cols.Stride+d], p.tbl.Cells[j][d].Node
			}
			changed = j
			steps++
		}
		// Cancellation is polled every 64 points: a context check per
		// point was measurable against the delta-path evaluation cost.
		if (k-lo)&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := p.evalInto(sc, &sc.pt, changed, out); err != nil {
			return err
		}
		if err := visit(out, &sc.pt); err != nil {
			return err
		}
		tick()
	}
	p.graySteps.Add(steps)
	p.points.Add(uint64(hi - lo))
	p.countPackageTerms(sc, hi-lo)
	return nil
}

// evalInto assembles one design point from the scratch's gathered row
// buffers into out. Per-chiplet contributions are reduced in chiplet
// order (see the file comment on why the totals are not running sums) as
// a sequential fold over the five dense row slices — the walk already
// gathered the current digits' entries from the table's SoA columns, so
// the fold's additions are the Cells walk's additions in the Cells
// walk's order, bit for bit. Whole-package terms come from the scratch
// estimator — through its single-changed-chiplet delta path when changed
// names the Gray step's chiplet (changed < 0 runs the full estimate) —
// and out.Nodes aliases the scratch's reusable buffer: callers that
// retain the point must copy it. slot is the point's output slot, its
// index in the plan's package column: a filled slot serves the package
// term (whole, or from the kept package area), and a walk filling the
// column stores the slots it estimates.
func (p *CompiledPlan) evalInto(sc *blockScratch, out *Point, changed, slot int) error {
	t := p.tbl
	var mfgKg, desKg, nreKg, diesUSD, nreUSD float64
	rowDes := sc.rowDes[:len(sc.rowMfg)]
	rowNre := sc.rowNre[:len(sc.rowMfg)]
	rowUSD := sc.rowUSD[:len(sc.rowMfg)]
	rowNREUSD := sc.rowNREUSD[:len(sc.rowMfg)]
	for i, m := range sc.rowMfg {
		mfgKg += m
		desKg += rowDes[i]
		nreKg += rowNre[i]
		diesUSD += rowUSD[i]
		nreUSD += rowNREUSD[i]
	}

	var hiKg, area, powerW float64
	assemblyYield := 1.0
	if p.monolith {
		area = t.Cols().AreaMM2[sc.digits[0]]
	} else {
		desKg += t.CommShare[sc.digits[0]]
		c := sc.serve
		if c == nil && sc.fill != nil && sc.fill.has(slot) {
			c = sc.fill.col
		}
		if c != nil {
			sc.served++
		}
		if c != nil && c.full != nil {
			v := &c.full[slot]
			hiKg, area, assemblyYield, powerW = v.HIKg, v.AreaMM2, v.AssemblyYield, v.RouterPowerW
			sc.estValid = false
		} else {
			pkg, err := p.estimatePackage(sc, c, changed, slot)
			if err != nil {
				return err
			}
			hiKg = pkg.TotalKg()
			area = pkg.PackageAreaMM2
			assemblyYield = pkg.AssemblyYield
			powerW = pkg.RouterTotalPowerW
			if c == nil && sc.fill != nil {
				p.storeColumn(sc, slot, pkg, hiKg)
			}
		}
	}

	var opKg float64
	if t.HasOp {
		v, err := sc.sc.OperationKg(t.Base.Operation, powerW)
		if err != nil {
			return err
		}
		opKg = v
	}

	asmUSD, err := t.Asm.USD(area, assemblyYield)
	if err != nil {
		return err
	}

	for i, d := range sc.digits {
		sc.picked[i] = p.nodes[d]
	}
	embodied := mfgKg + desKg + hiKg + nreKg
	*out = Point{
		Nodes:          sc.picked,
		EmbodiedKg:     embodied,
		TotalKg:        embodied + opKg,
		CostUSD:        diesUSD + asmUSD + nreUSD,
		PackageAreaMM2: area,
	}
	return nil
}

// grayInit seeds the scratch's odometer at sequence index k: the
// standard mixed-radix digits (most significant first, uniform radix
// r), the parity of the standard value above each digit, and the
// reflected Gray digits. Digit i runs its 0..r-1 sweep forward or
// reflected depending on that parity, which makes consecutive codes
// differ in exactly one digit by ±1 while the map from k to codes stays
// a bijection onto the full factorial space.
func (p *CompiledPlan) grayInit(k int, sc *blockScratch) {
	b := 0 // standard value of the more significant digits (parity is what matters)
	for i := 0; i < p.nc; i++ {
		a := k / p.weight[i] % p.r
		sc.std[i] = a
		sc.par[i] = b & 1
		if b&1 == 0 {
			sc.digits[i] = a
		} else {
			sc.digits[i] = p.r - 1 - a
		}
		b = b*p.r + a
	}
}

// EvalPoint evaluates the single design point with the given
// per-chiplet node assignment (nodes[i] is chiplet i's node in nm; every
// entry must come from the plan's candidate set). It is the what-if
// primitive of the serving layer: a node-swap request against a warm
// plan inverts the Gray code to the point's sequence index and walks
// that one-point range, so the returned point carries the exact float
// bits of the same point in a full RunCtx — and once a walk has filled
// the point's slot of the plan's package column, the package term comes
// from it without the floorplanner.
func (p *CompiledPlan) EvalPoint(ctx context.Context, nodes []int) (Point, error) {
	if len(nodes) != p.nc {
		return Point{}, fmt.Errorf("explore: EvalPoint got %d nodes for a %d-chiplet plan", len(nodes), p.nc)
	}
	// Invert grayInit: recover each chiplet's Gray digit (its index in
	// the candidate list), un-reflect it by the running parity into the
	// standard digit, and accumulate the sequence index.
	k, b := 0, 0
	for i, nm := range nodes {
		d := -1
		for j, cand := range p.nodes {
			if cand == nm {
				d = j
				break
			}
		}
		if d < 0 {
			return Point{}, fmt.Errorf("explore: EvalPoint node %dnm for chiplet %d is outside the plan's candidate set %v", nm, i, p.nodes)
		}
		a := d
		if b&1 == 1 {
			a = p.r - 1 - d
		}
		k += a * p.weight[i]
		b = b*p.r + a
	}
	var out Point
	err := p.WalkRange(ctx, k, k+1, func(idx int, pt *Point) error {
		out = *pt
		out.Nodes = append([]int(nil), pt.Nodes...)
		return nil
	})
	if err != nil {
		return Point{}, err
	}
	return out, nil
}

// grayStep advances the odometer one sequence index and returns the
// single changed Gray digit (its position, old and new value). The
// standard digits carry like a counter; the changed Gray position is
// where the carry chain ends, and only the parities below it need a
// refresh — amortized O(1) work per step, against the O(nc) div/mod
// decode of re-deriving the code from the index.
func (p *CompiledPlan) grayStep(sc *blockScratch) (j, old, d int) {
	j = p.nc - 1
	for sc.std[j] == p.r-1 {
		sc.std[j] = 0
		j--
	}
	sc.std[j]++
	// Digits above j are untouched, so par[0..j] stand; the zeroed
	// trailing digits' parities refresh from j+1 down. Their Gray
	// digits do not change (the reflection flips in step with the
	// parity — the Gray property), so only position j is reported.
	rodd := p.r & 1
	for i := j + 1; i < p.nc; i++ {
		sc.par[i] = (sc.par[i-1] & rodd) ^ (sc.std[i-1] & 1)
	}
	old = sc.digits[j]
	if sc.par[j] == 0 {
		d = sc.std[j]
	} else {
		d = p.r - 1 - sc.std[j]
	}
	sc.digits[j] = d
	return j, old, d
}
