package explore

import (
	"math"
	"runtime"
	"sync/atomic"
	"unsafe"
	"weak"

	"ecochip/internal/kernel"
	"ecochip/internal/pkgcarbon"
)

// A compiled plan owns one package column: per output slot, what a
// re-walk needs to skip the floorplanner. Walks fill it slot by slot
// (each slot is claimed before its entry is written and marked ready
// after, so it is written once and read only once written) and read
// every slot already filled, so a walk re-visiting points of an earlier
// one skips the floorplanner for them. Whole walks (RunCtx, Walk,
// ParetoFrontCtx) start a column on any plan that keeps one; WalkRange
// segments of two or more points start one only on plans of at most
// fullColumnPoints points, so a shard replica's leased blocks reuse
// each other's work; EvalPoint reads and fills but never starts one.
// The package estimate is pure in the point's digit vector, so a served
// entry is the estimator's own prior output and cannot change a bit.
//
// A column being filled is held only by the walks filling it and a weak
// pointer of the plan, so the collector reclaims a partial column no
// walk is using — a replica that sees only part of a plan keeps no
// memory for it past the next collection. The walk that writes the last
// slot publishes the column: it pins it on the plan, for the plan's
// lifetime, while the process column budget (SetColumnBudget) has room,
// and otherwise leaves it to serve walks until the collector reclaims
// it.
//
// What an entry holds depends on the plan size. A plan of at most
// fullColumnPoints points keeps the whole kernel.PkgPoint quadruple
// (32 B a point, 128 KB at most), so its warm re-walks are folds over
// table rows with no estimator call at all. A larger plan keeps what
// the floorplanner produced: the package area, plus the bridge count on
// silicon-bridge plans (8 B a point, 12 on EMIB), and finishes each
// re-walked point through kernel.Scratch.EstimatePackageOnArea. Larger
// 3D stacks have no floorplan and keep no column.

// fullColumnPoints is the largest plan whose column keeps the whole
// package quadruple per point.
const fullColumnPoints = 4096

// defaultColumnBudget is the process column budget until
// SetColumnBudget changes it: 64 MB, eight columns of the largest
// (10⁶-point) plans.
const defaultColumnBudget = 64 << 20

// pinned accounts the bytes of the package columns pinned on plans
// against the process column budget. A pinned column's bytes are
// returned when the collector reclaims it with its plan.
var pinned struct {
	limit, used atomic.Int64
}

func init() { pinned.limit.Store(defaultColumnBudget) }

// SetColumnBudget bounds the bytes of complete package columns the
// process pins on compiled plans and returns the previous bound. A
// column completed while the budget has no room for it still serves
// walks, but only until the collector reclaims it. A serving process
// whose plan cache is bounded by count sets this to bound the columns
// its cached plans keep; 0 pins none.
func SetColumnBudget(bytes int64) int64 { return pinned.limit.Swap(bytes) }

// reserveColumn takes n bytes of the column budget if it has room.
func reserveColumn(n int64) bool {
	for {
		u := pinned.used.Load()
		if u+n > pinned.limit.Load() {
			return false
		}
		if pinned.used.CompareAndSwap(u, u+n) {
			return true
		}
	}
}

// unpinColumn returns a reclaimed column's bytes to the budget.
func unpinColumn(n int64) { pinned.used.Add(-n) }

// pkgColumn is a plan's package column entries, indexed by output slot:
// full on plans of at most fullColumnPoints points, area (and bridges
// on silicon-bridge plans) on larger ones.
type pkgColumn struct {
	full    []kernel.PkgPoint
	area    []float64
	bridges []uint32
}

// columnFill is a column being filled: the entries and which of them
// are claimed and ready, one bit per slot each.
type columnFill struct {
	col            *pkgColumn
	claimed, ready []atomic.Uint64
	stored         atomic.Int64 // ready slots; all of them completes the column
}

// colWalk is a walk's relation to the plan's package column: the
// complete column it serves from, or the one it fills (and serves the
// ready slots of); both nil on plans without one.
type colWalk struct {
	serve *pkgColumn
	fill  *columnFill
}

// columnFor returns the column relation of a walk starting now, and
// starts a column when none is pinned or being filled and start is set.
func (p *CompiledPlan) columnFor(start bool) colWalk {
	if !p.keepsColumn {
		return colWalk{}
	}
	if c := p.col.Load(); c != nil {
		return colWalk{serve: c}
	}
	for {
		wp := p.part.Load()
		if wp != nil {
			if f := wp.Value(); f != nil {
				if f.stored.Load() == int64(p.combos) {
					return colWalk{serve: f.col}
				}
				return colWalk{fill: f}
			}
		}
		if !start {
			return colWalk{}
		}
		f := p.newColumnFill()
		w := weak.Make(f)
		if p.part.CompareAndSwap(wp, &w) {
			return colWalk{fill: f}
		}
	}
}

// newColumnFill allocates an empty column for the plan.
func (p *CompiledPlan) newColumnFill() *columnFill {
	c := &pkgColumn{}
	if p.combos <= fullColumnPoints {
		c.full = make([]kernel.PkgPoint, p.combos)
	} else {
		c.area = make([]float64, p.combos)
		if p.tbl.Base.Packaging.Arch == pkgcarbon.SiliconBridge {
			c.bridges = make([]uint32, p.combos)
		}
	}
	words := (p.combos + 63) / 64
	bits := make([]atomic.Uint64, 2*words)
	return &columnFill{col: c, claimed: bits[:words], ready: bits[words:]}
}

// setBit sets bit i of words and reports whether it was clear. (A
// compare-and-swap loop: with its result used, atomic.Uint64.Or faulted
// here under Go 1.24.0 on amd64.)
func setBit(words []atomic.Uint64, i int) bool {
	w, m := &words[i>>6], uint64(1)<<(i&63)
	for {
		o := w.Load()
		if o&m != 0 {
			return false
		}
		if w.CompareAndSwap(o, o|m) {
			return true
		}
	}
}

// has reports whether slot's entry is written.
func (f *columnFill) has(slot int) bool {
	return f.ready[slot>>6].Load()&(1<<(slot&63)) != 0
}

// storeColumn keeps the package term of the point at slot in the column
// the walk fills, unless another walk claimed the slot first (counted
// as a collision) or the column cannot hold it, and publishes the
// column when this was its last slot.
func (p *CompiledPlan) storeColumn(sc *blockScratch, slot int, pkg *pkgcarbon.Result, hiKg float64) {
	f := sc.fill
	c := f.col
	if c.bridges != nil && uint64(pkg.NumBridges) > math.MaxUint32 {
		return // never complete: the column keeps serving its ready slots
	}
	if !setBit(f.claimed, slot) {
		sc.collided++
		return
	}
	if c.full != nil {
		c.full[slot] = kernel.PkgPoint{HIKg: hiKg, AreaMM2: pkg.PackageAreaMM2, AssemblyYield: pkg.AssemblyYield, RouterPowerW: pkg.RouterTotalPowerW}
	} else {
		c.area[slot] = pkg.PackageAreaMM2
		if c.bridges != nil {
			c.bridges[slot] = uint32(pkg.NumBridges)
		}
	}
	setBit(f.ready, slot)
	if f.stored.Add(1) == int64(p.combos) && reserveColumn(int64(c.bytes())) {
		p.col.Store(c)
		runtime.AddCleanup(c, unpinColumn, int64(c.bytes()))
	}
}

// bridgeCount is the kept bridge count of slot (0 off silicon-bridge
// plans, whose models do not read it).
func (c *pkgColumn) bridgeCount(slot int) int {
	if c.bridges == nil {
		return 0
	}
	return int(c.bridges[slot])
}

// bytes is the column's resident size (0 for a nil column).
func (c *pkgColumn) bytes() int {
	if c == nil {
		return 0
	}
	return len(c.full)*int(unsafe.Sizeof(kernel.PkgPoint{})) + len(c.area)*8 + len(c.bridges)*4
}

// estimatePackage runs the package estimate of the scratch's current
// chiplets: from the package area of c when the walk serves the slot
// from a column, otherwise through the floorplanner — its single-
// changed-chiplet delta path when changed names the Gray step's chiplet
// and the estimator planned the previous point.
func (p *CompiledPlan) estimatePackage(sc *blockScratch, c *pkgColumn, changed, slot int) (*pkgcarbon.Result, error) {
	if c != nil {
		sc.estValid = false
		return sc.sc.EstimatePackageOnArea(c.area[slot], c.bridgeCount(slot))
	}
	var pkg *pkgcarbon.Result
	var err error
	if changed >= 0 && sc.estValid {
		pkg, err = sc.sc.EstimatePackageDelta(changed)
	} else {
		pkg, err = sc.sc.EstimatePackage()
	}
	if err != nil {
		return nil, err
	}
	sc.estValid = true
	return pkg, nil
}

// countPackageTerms counts how a completed block's n points got their
// package terms (see SweepStats.PkgMemo).
func (p *CompiledPlan) countPackageTerms(sc *blockScratch, n int) {
	if p.monolith {
		return
	}
	if sc.served > 0 {
		p.colHits.Add(sc.served)
	}
	if m := uint64(n) - sc.served; m > 0 {
		p.colMisses.Add(m)
	}
	if sc.collided > 0 {
		p.colCollisions.Add(sc.collided)
	}
}
