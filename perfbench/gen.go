package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ecochip/internal/core"
	"ecochip/internal/descarbon"
	"ecochip/internal/explore"
	"ecochip/internal/mfg"
	"ecochip/internal/opcarbon"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// Design is one generated design under study: the system the programs
// receive plus the candidate node list of its sweep.
type Design struct {
	Sys   *core.System
	Nodes []int
	// Family is the generator archetype: "epyc" (identical compute dies
	// around one IO die), "ga102" (a digital block split into equal dies
	// beside memory and analog dies) or "mixed" (every die distinct).
	Family string
	// Identical is the size of the largest group of identical dies
	// (0 when every die is distinct).
	Identical int
}

// Points is the design's full-factorial sweep size.
func (d *Design) Points() int { return ipow(len(d.Nodes), len(d.Sys.Chiplets)) }

func ipow(b, e int) int {
	p := 1
	for i := 0; i < e; i++ {
		p *= b
	}
	return p
}

const (
	minRadix = 3
	maxRadix = 7 // len(testcases.MaskNodes)

	minChiplets = 3
	maxChiplets = 9
)

// sweepGrid lists every (chiplets, radix) shape whose full-factorial
// sweep has between minPoints and maxPoints points, smallest chiplet
// count first.
func sweepGrid(minPoints, maxPoints int) [][2]int {
	var g [][2]int
	for nc := minChiplets; nc <= maxChiplets; nc++ {
		for r := minRadix; r <= maxRadix; r++ {
			if p := ipow(r, nc); p >= minPoints && p <= maxPoints {
				g = append(g, [2]int{nc, r})
			}
		}
	}
	return g
}

// gridDesigns draws one design per sweep shape of the grid and packaging
// architecture, in a seeded order: the DSE workloads' design set. The
// shapes fix the sweep-size distribution; crossing them with the
// architectures (whose per-point cost differs up to fourfold) and
// assigning the families in a Latin square keeps the cost mix from
// varying with the seed, which draws everything else.
func gridDesigns(rng *rand.Rand, db *tech.DB, grid [][2]int) []*Design {
	archs := pkgcarbon.Architectures
	out := make([]*Design, len(grid)*len(archs))
	for i, k := range rng.Perm(len(out)) {
		si, ai := k/len(archs), k%len(archs)
		out[i] = genDesign(rng, db, grid[si][0], grid[si][1], archs[ai], (si+ai)%nFamilies, i)
	}
	return out
}

// poolDesigns draws n designs of minChiplets..maxChiplets chiplets over
// minRadix..maxRadix candidate nodes (fewer where the sweep would pass
// explore.MaxCombinations): the serving workload's design pool. Design
// i's chiplet count, radix, architecture and family cycle with i, so
// every popularity rank has the same shape whatever the seed.
func poolDesigns(rng *rand.Rand, db *tech.DB, n int) []*Design {
	archs := pkgcarbon.Architectures
	nChiplets, nRadix := maxChiplets-minChiplets+1, maxRadix-minRadix+1
	out := make([]*Design, n)
	for i := range out {
		nc := minChiplets + i%nChiplets
		r := minRadix + (i/nChiplets)%nRadix
		for ipow(r, nc) > explore.MaxCombinations {
			r--
		}
		out[i] = genDesign(rng, db, nc, r, archs[i%len(archs)], i%nFamilies, i)
	}
	return out
}

// The design families genDesign builds.
const (
	familyEPYC = iota
	familyGA102
	familyMixed
	nFamilies
)

// genDesign draws one design of the family with nc chiplets whose
// candidate node list is r of the mask-set nodes; every chiplet starts on
// one of them.
//
// Die areas stay within ±5% of the midpoint of each die kind's range
// (mixed dies split the range evenly between them), so a design set's
// cost mix varies little with the seed.
func genDesign(rng *rand.Rand, db *tech.DB, nc, r int, arch pkgcarbon.Architecture, family, id int) *Design {
	area := func(lo, hi float64) float64 { return (lo + hi) / 2 * (0.95 + 0.1*rng.Float64()) }
	perm := rng.Perm(len(testcases.MaskNodes))
	nodes := make([]int, r)
	for i := range nodes {
		nodes[i] = testcases.MaskNodes[perm[i]]
	}
	sort.Ints(nodes)
	pick := func() int { return nodes[rng.Intn(len(nodes))] }
	ref := db.MustGet(7)

	d := &Design{Nodes: nodes}
	var chiplets []core.Chiplet
	switch family {
	case familyEPYC:
		// EPYC-like: nc-1 identical reused compute dies plus an IO die.
		d.Family, d.Identical = "epyc", nc-1
		ccdMM2 := area(60, 90)
		ccdNode := pick()
		for i := 0; i < nc-1; i++ {
			c := core.BlockFromArea(fmt.Sprintf("ccd%d", i), tech.Logic, ccdMM2, ref, ccdNode)
			c.Reused = true
			c.ManufacturedParts = 8 * core.DefaultVolume
			chiplets = append(chiplets, c)
		}
		chiplets = append(chiplets, core.BlockFromArea("iod", tech.Analog, area(300, 450), ref, pick()))
	case familyGA102:
		// GA102-like: a digital block split into nc-2 equal dies.
		d.Family, d.Identical = "ga102", nc-2
		if d.Identical < 2 {
			d.Identical = 0 // a one-way split has no identical pair
		}
		digMM2 := area(350, 650)
		digNode := pick()
		for i := 0; i < nc-2; i++ {
			chiplets = append(chiplets, core.BlockFromArea(fmt.Sprintf("digital%d", i), tech.Logic, digMM2/float64(nc-2), ref, digNode))
		}
		chiplets = append(chiplets,
			core.BlockFromArea("memory", tech.Memory, area(50, 110), ref, pick()),
			core.BlockFromArea("analog", tech.Analog, area(30, 70), ref, pick()))
	default:
		d.Family = "mixed"
		types := []tech.DesignType{tech.Logic, tech.Memory, tech.Analog}
		rot := rng.Intn(len(types))
		for i := 0; i < nc; i++ {
			lo := 20 + 180*float64(i)/float64(nc)
			chiplets = append(chiplets, core.BlockFromArea(fmt.Sprintf("blk%d", i),
				types[(i+rot)%len(types)], area(lo, lo+180/float64(nc)), ref, pick()))
		}
	}
	sys := &core.System{
		Name:      fmt.Sprintf("%s-%d-%dc", d.Family, id, nc),
		Chiplets:  chiplets,
		Packaging: pkgcarbon.DefaultParams(arch),
		Mfg:       mfg.DefaultParams(),
		Design:    descarbon.DefaultParams(),
		Operation: &opcarbon.Spec{
			DutyCycle:       0.05 + 0.15*rng.Float64(),
			LifetimeYears:   float64(2 + rng.Intn(4)),
			CarbonIntensity: 0.3 + 0.4*rng.Float64(),
			AnnualEnergyKWh: 50 + 200*rng.Float64(),
		},
		IncludeNRE: rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		sys.SystemVolume = 150_000
	}
	d.Sys = sys
	return d
}

// frontNodes is the leading prefix of the design's node list whose
// sweep stays within maxPoints (at least two nodes): the candidate set
// of the design's front-sweep requests.
func (d *Design) frontNodes(maxPoints int) []int {
	nc := len(d.Sys.Chiplets)
	r := len(d.Nodes)
	for r > 2 && ipow(r, nc) > maxPoints {
		r--
	}
	return d.Nodes[:r]
}

// designShares summarizes a design set's properties: the chiplet-count
// and sweep-size distributions, the share of designs with identical
// dies, and the packaging-architecture and family mixes.
func designShares(ds []*Design) map[string]any {
	n := float64(len(ds))
	combos := map[string]float64{}
	archs := map[string]float64{}
	fams := map[string]float64{}
	var identical float64
	sizes := make([]float64, len(ds))
	for i, d := range ds {
		combos[fmt.Sprintf("%dc", len(d.Sys.Chiplets))] += 1 / n
		archs[d.Sys.Packaging.Arch.String()] += 1 / n
		fams[d.Family] += 1 / n
		if d.Identical > 0 {
			identical += 1 / n
		}
		sizes[i] = float64(d.Points())
	}
	sort.Float64s(sizes)
	return map[string]any{
		"designs":         len(ds),
		"chiplets":        roundMap(combos),
		"arch":            roundMap(archs),
		"family":          roundMap(fams),
		"identical_share": round3(identical),
		"points_min":      sizes[0],
		"points_p50":      sizes[len(sizes)/2],
		"points_max":      sizes[len(sizes)-1],
	}
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func roundMap(m map[string]float64) map[string]float64 {
	for k, v := range m {
		m[k] = round3(v)
	}
	return m
}
