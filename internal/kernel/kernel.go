// Package kernel is the compiled-evaluation core shared by every
// design-space workflow: node sweeps (internal/explore), tornado
// sensitivity (internal/sensitivity) and Monte Carlo uncertainty
// (internal/uncertainty) all reduce to "evaluate many systems that differ
// from a compiled base in a known, small way", and this package owns the
// machinery that makes those evaluations allocation-free and
// bit-identical to the one-off core.System.Evaluate path:
//
//   - Table: the dense per-(chiplet, node) invariant table of a node
//     sweep — core.DieCell rows plus die dollar cost, NRE cost and the
//     communication design share — built through the same core seam
//     (CellFor / MonolithCell) that Evaluate itself uses, so bit-identity
//     holds by construction.
//   - Scratch: one worker's reusable arena — the packaging estimator
//     (pkgcarbon.Estimator with its retained incremental floorplan
//     tree, whose single-changed-chiplet delta path the Gray-code sweep
//     walk drives through EstimatePackageDelta), chiplet descriptor
//     buffer, operational-term memo and the tech.Sandbox for per-sample
//     node perturbation. On tables whose chiplets share area columns
//     (Table.FloorplanMemoSlots), the floorplan tree's permutation-
//     invariant memo (keyed by the sorted area vector) skips floorplan
//     work; every sweep walk of more than one point arms it with
//     ArmFloorplanMemo. EstimatePackageOnArea finishes a re-walked
//     point from the package area its plan's first whole walk kept.
//   - ParamPlan: a compiled plan keyed by perturbed *tech.Node / system
//     parameters. It tabulates every sub-result of the base point once
//     and re-evaluates perturbations by recomputing only the sub-models
//     a Dirty set names, serving everything else from the table through
//     the core.Hooks seam.
//
// The contract everywhere is bit-identity: a compiled evaluation returns
// the exact float bits of the uncompiled reference path (guarded by
// randomized equivalence tests in the client packages), so callers can
// switch paths freely for speed without perturbing a single result.
package kernel

import (
	"fmt"

	"ecochip/internal/floorplan"
	"ecochip/internal/opcarbon"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
)

// Totals is one design point reduced in the canonical core.Report order;
// the field and expression order mirror Report exactly so the sums carry
// the same float bits.
type Totals struct {
	// MfgKg, DesignKg, HIKg, NREKg, OperationalKg are the Report terms.
	MfgKg, DesignKg, HIKg, NREKg, OperationalKg float64
	// PackageAreaMM2 is the substrate/die footprint.
	PackageAreaMM2 float64
	// AssemblyYield is the package-level yield divisor (1 for monoliths).
	AssemblyYield float64
	// RouterPowerW is the communication power fed to the operational model.
	RouterPowerW float64
}

// EmbodiedKg returns C_emb exactly as core.Report.EmbodiedKg computes it.
func (t Totals) EmbodiedKg() float64 { return t.MfgKg + t.DesignKg + t.HIKg + t.NREKg }

// TotalKg returns C_tot exactly as core.Report.TotalKg computes it.
func (t Totals) TotalKg() float64 { return t.EmbodiedKg() + t.OperationalKg }

// Scratch is one worker's reusable evaluation arena. It is NOT safe for
// concurrent use: batch engines build one per worker goroutine
// (engine.RunScratch / engine.RunBlocks) and reuse it across every point
// the worker evaluates.
type Scratch struct {
	pkgCh []pkgcarbon.Chiplet
	est   *pkgcarbon.Estimator // sweep scratches only; nil for param plans

	hooks paramHooks    // param-plan scratches only
	sb    *tech.Sandbox // lazy; built on first PerturbNodes
	db    *tech.DB      // sandbox source (the plan's database)

	// Last-value memo for the operational term: its input (spec, router
	// power) is constant across whole sweeps and across all samples /
	// node-side factors of a parameter plan.
	opSpec   *opcarbon.Spec
	opValid  bool
	opPowerW float64
	opKg     float64

	// fpFolded is the floorplan-stats snapshot already folded into a
	// ScratchPool's totals (see ScratchPool.Put).
	fpFolded floorplan.TreeStats
}

// PkgMemoStats counts how a compiled sweep plan's points got their
// package terms: served from the plan's package column (Hits) or
// estimated through the floorplanner (Misses).
type PkgMemoStats struct {
	// Hits is the number of points served from the package column.
	Hits uint64
	// Misses is the number of points whose package term was estimated:
	// every point whose slot of the column was not yet filled.
	Misses uint64
	// Collisions is the subset of Misses whose slot another walk had
	// claimed first, so the estimate was not kept: concurrent walks
	// recomputing each other's points.
	Collisions uint64
}

// Add accumulates o into s.
func (s *PkgMemoStats) Add(o PkgMemoStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Collisions += o.Collisions
}

// PkgPoint is the package-term quadruple one compiled sweep point folds
// into its totals: heterogeneous-integration carbon, package area,
// assembly yield and router power, exactly as returned by the package
// estimate of the point's digit vector.
type PkgPoint struct {
	HIKg, AreaMM2, AssemblyYield, RouterPowerW float64
}

// NewSweepScratch builds the per-worker arena of a compiled node sweep:
// a chiplet descriptor buffer for nc dies and, when pkg is non-nil (the
// multi-chiplet path), a packaging estimator over the fixed parameters.
func NewSweepScratch(pkg *pkgcarbon.Params, nc int) (*Scratch, error) {
	sc := &Scratch{}
	if pkg != nil {
		est, err := pkgcarbon.NewEstimator(*pkg)
		if err != nil {
			return nil, err
		}
		sc.est = est
		sc.pkgCh = make([]pkgcarbon.Chiplet, nc)
	}
	return sc, nil
}

// Chiplets returns the scratch-owned packaging descriptor buffer; sweep
// walkers refresh only the entries their Gray step changed.
func (sc *Scratch) Chiplets() []pkgcarbon.Chiplet { return sc.pkgCh }

// ResizeChiplets re-slices the packaging descriptor buffer to n dies
// (within the construction capacity) and returns it — the shape of a
// shrinking search like Disaggregate, where each greedy step packages
// one fewer die on the same pooled scratch.
func (sc *Scratch) ResizeChiplets(n int) []pkgcarbon.Chiplet {
	if n > cap(sc.pkgCh) {
		panic("kernel: ResizeChiplets beyond the scratch's construction capacity")
	}
	sc.pkgCh = sc.pkgCh[:n]
	return sc.pkgCh
}

// EstimatePackage runs the scratch estimator over the current chiplet
// descriptors. The result is owned by the estimator and overwritten by
// the next call. Only multi-chiplet sweep scratches carry an estimator;
// calling this on a param-plan or monolith scratch is a usage error.
func (sc *Scratch) EstimatePackage() (*pkgcarbon.Result, error) {
	if sc.est == nil {
		return nil, fmt.Errorf("kernel: EstimatePackage on a scratch without a packaging estimator (param-plan or monolith scratch)")
	}
	return sc.est.Estimate(sc.pkgCh)
}

// EstimatePackageDelta is EstimatePackage when only chiplet descriptor
// `changed` differs from the previous estimate on this scratch — the
// Gray-step shape of a compiled sweep walk. The estimator routes the
// floorplan through its retained tree's single-block update and falls
// back to the full path whenever the precondition cannot be verified,
// so the result is bit-identical to EstimatePackage either way.
func (sc *Scratch) EstimatePackageDelta(changed int) (*pkgcarbon.Result, error) {
	if sc.est == nil {
		return nil, fmt.Errorf("kernel: EstimatePackageDelta on a scratch without a packaging estimator (param-plan or monolith scratch)")
	}
	return sc.est.EstimateDelta(sc.pkgCh, changed)
}

// EstimatePackageOnArea is EstimatePackage for chiplet descriptors
// whose floorplan an earlier estimate planned: it finishes the estimate
// from that estimate's package area and bridge count without running
// the floorplanner (see pkgcarbon.Estimator.EstimateOnArea), with the
// same float bits.
func (sc *Scratch) EstimatePackageOnArea(areaMM2 float64, bridges int) (*pkgcarbon.Result, error) {
	if sc.est == nil {
		return nil, fmt.Errorf("kernel: EstimatePackageOnArea on a scratch without a packaging estimator (param-plan or monolith scratch)")
	}
	return sc.est.EstimateOnArea(sc.pkgCh, areaMM2, bridges)
}

// ArmFloorplanMemo arms the scratch estimator's permutation-invariant
// floorplan memo with Table.FloorplanMemoSlots entries (see
// pkgcarbon.Estimator.SetFloorplanMemo); a no-op on scratches without
// an estimator. Results are bit-identical armed or not.
func (sc *Scratch) ArmFloorplanMemo(slots int) {
	if sc.est != nil {
		sc.est.SetFloorplanMemo(slots)
	}
}

// MergeForkable reports whether the scratch estimator supports the
// pinned-base merge-candidate fork (false for scratches without an
// estimator).
func (sc *Scratch) MergeForkable() bool {
	return sc.est != nil && sc.est.MergeForkable()
}

// PrimeMergeBase pins the scratch's current chiplet descriptors as the
// merge-fork base: their floorplan is committed to the retained tree
// without running the packaging model. See pkgcarbon's PrimeMergeBase.
func (sc *Scratch) PrimeMergeBase() error {
	if sc.est == nil {
		return fmt.Errorf("kernel: PrimeMergeBase on a scratch without a packaging estimator (param-plan or monolith scratch)")
	}
	return sc.est.PrimeMergeBase(sc.pkgCh)
}

// EstimatePackageMergeFork is EstimatePackage for a Disaggregate merge
// candidate evaluated against a pinned base: the base primed by the
// last PrimeMergeBase with dies r1 and r2 removed and merged appended
// last. The candidate descriptor set is never materialized, and the
// retained floorplan stays pinned to the base so every candidate of a
// step forks against the same warm tree. Bit-identical to
// EstimatePackage on the candidate set.
func (sc *Scratch) EstimatePackageMergeFork(r1, r2 int, merged pkgcarbon.Chiplet) (*pkgcarbon.Result, error) {
	if sc.est == nil {
		return nil, fmt.Errorf("kernel: EstimatePackageMergeFork on a scratch without a packaging estimator (param-plan or monolith scratch)")
	}
	return sc.est.EstimateMergeFork(r1, r2, merged)
}

// FloorplanStats snapshots the scratch estimator's retained-tree reuse
// counters (zero for scratches without an estimator).
func (sc *Scratch) FloorplanStats() floorplan.TreeStats {
	if sc.est == nil {
		return floorplan.TreeStats{}
	}
	return sc.est.FloorplanStats()
}

// OperationKg returns spec.LifetimeKg(powerW) through the last-value
// memo: the operational term's inputs are piecewise-constant across the
// points a worker evaluates, so the memo collapses almost every call.
func (sc *Scratch) OperationKg(spec *opcarbon.Spec, powerW float64) (float64, error) {
	if sc.opValid && sc.opSpec == spec && sc.opPowerW == powerW {
		return sc.opKg, nil
	}
	kg, err := spec.LifetimeKg(powerW)
	if err != nil {
		return 0, err
	}
	sc.opSpec, sc.opPowerW, sc.opKg, sc.opValid = spec, powerW, kg, true
	return kg, nil
}

// PerturbNodes returns a perturbed database for one evaluation: the
// scratch's private sandbox copy of the plan's database with every node
// reset to its base parameters and mutate applied — the allocation-free
// equivalent of db.Clone(mutate) for per-sample Monte Carlo
// perturbation. The returned DB is only valid until the next
// PerturbNodes call on this scratch.
func (sc *Scratch) PerturbNodes(mutate func(*tech.Node)) *tech.DB {
	if sc.db == nil {
		panic("kernel: PerturbNodes on a sweep scratch; build one with ParamPlan.NewScratch")
	}
	if sc.sb == nil {
		sc.sb = sc.db.NewSandbox()
	}
	return sc.sb.Reset(mutate)
}
