package kernel

import (
	"fmt"
	"math"
	"unsafe"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/floorplan"
	"ecochip/internal/tech"
)

// Table is the dense per-(chiplet, node) invariant table of a compiled
// node sweep: every sub-result that depends only on which node one
// chiplet sits in — area, manufacturing carbon, design carbon, NRE
// share, die dollar cost — plus the single-row per-node invariants (NRE
// dollar cost, communication design share) and the fixed assembly
// pricer. BuildTable computes each entry through the same core seam
// (CellFor / MonolithCell) that System.Evaluate uses, so a point
// assembled from the table carries the exact float bits of a one-off
// evaluation. A Table is immutable after BuildTable and safe for
// concurrent use.
type Table struct {
	// Base and DB are the compiled system and database.
	Base *core.System
	DB   *tech.DB
	// Nodes is the candidate node list (the column order of every row).
	Nodes []int
	// Monolith selects the single-die evaluation path (single-chiplet or
	// monolithic bases): no packaging, no communication fabric.
	Monolith bool
	// HasOp reports whether the base carries an operating spec.
	HasOp bool

	// Cells and DieUSD are indexed [chiplet][node]; monolith tables hold
	// one row of merged-die cells. NREUSD and CommShare depend only on
	// the node (and, for CommShare, the fixed chiplet count), so they are
	// single rows; CommShare is nil for monolith tables.
	Cells     [][]core.DieCell
	DieUSD    [][]float64
	NREUSD    []float64
	CommShare []float64

	// cols is the struct-of-arrays view of the hot metric columns,
	// copied bit-for-bit out of Cells/DieUSD by BuildTable (see Cols).
	cols Cols

	// fpMemoSlots is the floorplan-memo size of FloorplanMemoSlots.
	fpMemoSlots int

	// Names are the chiplet names for packaging descriptors (nil for
	// monolith tables).
	Names []string
	// Asm prices assembly for the fixed (architecture, die count) pair.
	Asm cost.Assembler
}

// Cols is the struct-of-arrays view of a table's hot metric columns:
// one flat row-major float64 slice per metric, indexed [i*Stride+j] for
// chiplet row i and node column j. The values are the exact float bits
// of the corresponding Cells/DieUSD entries — BuildTable copies them out
// of the cells it just computed — so a fold over the columns in chiplet
// order reproduces the AoS fold bit for bit while touching only the
// bytes it sums (a DieCell row drags eight fields through the cache to
// add four). Sweep, ParamPlan and Disaggregate walks gather per-chiplet
// strides from here into dense per-point buffers refreshed one row per
// Gray step. The slices are owned by the table and must not be written.
type Cols struct {
	// Stride is the row length (the candidate node count).
	Stride int
	// MfgKg, DesignKg, NREKg, AreaMM2 mirror the DieCell fields MfgKg,
	// DesignKgAmortized, NREKg and AreaMM2 (the operational term's
	// monolith input); DieUSD mirrors Table.DieUSD.
	MfgKg, DesignKg, NREKg, AreaMM2, DieUSD []float64
	// NREUSD is the per-node single row, indexed by node column alone.
	NREUSD []float64
}

// Row returns column col's contiguous stride for chiplet row i.
func (c *Cols) Row(col []float64, i int) []float64 {
	return col[i*c.Stride : (i+1)*c.Stride]
}

// Cols returns the table's struct-of-arrays column view.
func (t *Table) Cols() *Cols { return &t.cols }

// FoldAoS reduces the hot metric terms of the point selected by digits
// (digits[i] = node column of chiplet row i) straight off the Cells
// rows — the array-of-structs layout the compiled walks used before the
// column view existed. Kept as the parity oracle and micro-benchmark
// baseline for FoldCols; the reduction order is chiplet-major, exactly
// the order every compiled walk sums in.
func (t *Table) FoldAoS(digits []int) (mfgKg, desKg, nreKg, diesUSD, nreUSD float64) {
	for i, d := range digits {
		cell := &t.Cells[i][d]
		mfgKg += cell.MfgKg
		desKg += cell.DesignKgAmortized
		nreKg += cell.NREKg
		diesUSD += t.DieUSD[i][d]
		nreUSD += t.NREUSD[d]
	}
	return
}

// FoldCols is FoldAoS off the flat column view: same terms, same
// chiplet-major order, so the result is byte-identical by construction
// (the randomized SoA parity test pins this).
func (t *Table) FoldCols(digits []int) (mfgKg, desKg, nreKg, diesUSD, nreUSD float64) {
	c := &t.cols
	for i, d := range digits {
		k := i*c.Stride + d
		mfgKg += c.MfgKg[k]
		desKg += c.DesignKg[k]
		nreKg += c.NREKg[k]
		diesUSD += c.DieUSD[k]
		nreUSD += c.NREUSD[d]
	}
	return
}

// LayoutBytes reports the resident bytes of the two table layouts: the
// array-of-structs view (DieCell rows plus the DieUSD rows) and the
// struct-of-arrays columns. Surfaced by ecodse -progress next to the
// plan statistics.
func (t *Table) LayoutBytes() (aosBytes, soaBytes int) {
	cells := len(t.Cells) * len(t.Nodes)
	const dieCellBytes = int(unsafe.Sizeof(core.DieCell{}))
	aosBytes = cells*dieCellBytes + cells*8 + len(t.NREUSD)*8
	soaBytes = 5*cells*8 + len(t.cols.NREUSD)*8
	return
}

// BuildTable validates the base system and precomputes the dense
// per-(chiplet, node) table for evaluating it under every candidate
// node. Every node-independent computation and every per-(chiplet, node)
// sub-model call runs exactly once; errors any point of a sweep would
// hit (invalid base description, unsupported candidate node, sub-model
// domain violations, missing cost table entries) surface here.
func BuildTable(base *core.System, db *tech.DB, nodes []int, cp cost.Params) (*Table, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("kernel: no candidate nodes")
	}
	if err := base.Validate(db); err != nil {
		return nil, err
	}
	for _, nm := range nodes {
		if !db.Has(nm) {
			return nil, fmt.Errorf("kernel: candidate node %dnm is not in the technology database", nm)
		}
	}
	nc := len(base.Chiplets)
	t := &Table{
		Base:     base,
		DB:       db,
		Nodes:    append([]int(nil), nodes...),
		Monolith: base.Monolithic || nc == 1,
		HasOp:    base.Operation != nil,
		NREUSD:   make([]float64, len(nodes)),
	}

	vol := base.Volume()
	rows := nc
	archName := base.Packaging.Arch.String()
	if t.Monolith {
		rows = 1
		archName = "monolithic"
	}
	t.Cells = make([][]core.DieCell, rows)
	t.DieUSD = make([][]float64, rows)
	// The five hot columns share one backing array: they are read
	// together, stride for stride, by every per-point fold.
	colBuf := make([]float64, 5*rows*len(nodes))
	t.cols = Cols{
		Stride:   len(nodes),
		MfgKg:    colBuf[0*rows*len(nodes) : 1*rows*len(nodes)],
		DesignKg: colBuf[1*rows*len(nodes) : 2*rows*len(nodes)],
		NREKg:    colBuf[2*rows*len(nodes) : 3*rows*len(nodes)],
		AreaMM2:  colBuf[3*rows*len(nodes) : 4*rows*len(nodes)],
		DieUSD:   colBuf[4*rows*len(nodes) : 5*rows*len(nodes)],
		NREUSD:   t.NREUSD,
	}
	for i := 0; i < rows; i++ {
		t.Cells[i] = make([]core.DieCell, len(nodes))
		t.DieUSD[i] = make([]float64, len(nodes))
		for j, nm := range nodes {
			var cell core.DieCell
			var err error
			if t.Monolith {
				cell, err = base.MonolithCell(db, nm, nil)
			} else {
				cell, err = base.CellFor(db, base.Chiplets[i], nm, nil)
			}
			if err != nil {
				return nil, err
			}
			t.Cells[i][j] = cell
			usd, err := cost.DieUSD(cell.Node, cell.AreaMM2, cp)
			if err != nil {
				return nil, err
			}
			t.DieUSD[i][j] = usd
			k := i*len(nodes) + j
			t.cols.MfgKg[k] = cell.MfgKg
			t.cols.DesignKg[k] = cell.DesignKgAmortized
			t.cols.NREKg[k] = cell.NREKg
			t.cols.AreaMM2[k] = cell.AreaMM2
			t.cols.DieUSD[k] = usd
		}
	}
	for j, nm := range nodes {
		usd, err := cost.NREUSDPerPart(db.MustGet(nm), vol, cp)
		if err != nil {
			return nil, err
		}
		t.NREUSD[j] = usd
	}
	if !t.Monolith {
		t.CommShare = make([]float64, len(nodes))
		for j, nm := range nodes {
			share, err := base.CommDesignShareKg(db, nm, nc, nil)
			if err != nil {
				return nil, err
			}
			t.CommShare[j] = share
		}
		t.Names = make([]string, nc)
		for i, c := range base.Chiplets {
			t.Names[i] = c.Name
		}
		t.fpMemoSlots = memoSlots(t.cols.AreaMM2, nc, len(nodes))
	}
	// rows is the die count of every point: nc chiplets, or one merged
	// die for monolith tables — exactly what assembly charges per.
	asm, err := cost.NewAssembler(archName, rows, cp)
	if err != nil {
		return nil, err
	}
	t.Asm = asm
	return t, nil
}

// FloorplanMemoSlots sizes the permutation-invariant floorplan memo
// (floorplan.Tree.SetMemo) for sweeps over this table: twice the bound
// Π C(k_g+r−1, r−1) on the distinct sorted area vectors of the sweep,
// where the chiplets fall into groups of k_g with bit-identical area
// columns and r is the node count, capped at floorplan.MaxMemoSlots
// (the slack keeps the hashed table's conflict misses rare). It is 0
// when no two chiplets share an area column (or for monolith tables):
// then every point has its own area multiset and a memo would only cost
// memory.
func (t *Table) FloorplanMemoSlots() int { return t.fpMemoSlots }

// memoSlots computes FloorplanMemoSlots off the area columns of nc
// chiplet rows of stride r.
func memoSlots(areas []float64, nc, r int) int {
	row := func(i int) []float64 { return areas[i*r : (i+1)*r] }
	grouped := make([]bool, nc)
	bound, shared := 1, false
	for i := 0; i < nc; i++ {
		if grouped[i] {
			continue
		}
		k := 1
		for j := i + 1; j < nc; j++ {
			if !grouped[j] && sameBits(row(i), row(j)) {
				grouped[j] = true
				k++
			}
		}
		shared = shared || k > 1
		// C(k+r-1, r-1) multisets of size k over r nodes, built up by
		// the exact recurrence C(k+m, m) = C(k+m-1, m-1)·(k+m)/m.
		c := 1
		for m := 1; m < r; m++ {
			c = c * (k + m) / m
		}
		bound = min(bound*c, floorplan.MaxMemoSlots)
	}
	if !shared {
		return 0
	}
	return min(2*bound, floorplan.MaxMemoSlots)
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// NewScratch builds a per-worker sweep arena sized for this table.
func (t *Table) NewScratch() (*Scratch, error) {
	if t.Monolith {
		return NewSweepScratch(nil, 1)
	}
	return NewSweepScratch(&t.Base.Packaging, len(t.Base.Chiplets))
}
