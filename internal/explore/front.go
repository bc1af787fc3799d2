package explore

import "sort"

// FrontEntry is one survivor of a FrontFold: the point's output slot
// and its scalar fields. Nodes is nil; CompiledPlan.FrontPoints
// decodes it from the slot for the survivors only.
type FrontEntry struct {
	Slot  int
	Point Point
}

// FrontFold is an incremental skyline: the mutually non-dominated subset
// of the points streamed so far, keyed by output slot. Equal points do
// not dominate each other (matching ParetoFront), so exact duplicates
// coexist. Dominance is transitive, so any point a fold over part of a
// sweep eliminates would also be eliminated by a ParetoFront pass over
// the whole sweep, however the sweep is partitioned: per-block folds
// merged in slot order and given one final ParetoFront pass reproduce
// ParetoFront of the full point slice exactly. Objective values are
// computed once per point and stored in a flat arena, so membership
// checks are branch-light float compares and no insert allocates beyond
// the fold's own slices. A FrontFold is not safe for concurrent use.
type FrontFold struct {
	k       int
	entries []FrontEntry
	objs    []float64 // len(entries)*k objective values
	vals    []float64 // candidate scratch, len k
}

// NewFrontFold returns an empty fold over k objectives.
func NewFrontFold(k int) *FrontFold {
	return &FrontFold{k: k, vals: make([]float64, k)}
}

// Add folds the point at slot into the front: rejected if any member
// dominates it, otherwise inserted after evicting the members it
// dominates. The front invariant (mutual non-dominance) makes the two
// outcomes exclusive, so a single pass suffices. pt is not retained.
func (f *FrontFold) Add(slot int, pt *Point, objectives []Metric) {
	vals := f.vals
	for j, m := range objectives {
		vals[j] = m(*pt)
	}
	for e := 0; e < len(f.entries); {
		ov := f.objs[e*f.k : (e+1)*f.k]
		memberBetter, candidateBetter := false, false
		for j := 0; j < f.k; j++ {
			switch {
			case ov[j] < vals[j]:
				memberBetter = true
			case ov[j] > vals[j]:
				candidateBetter = true
			}
		}
		if memberBetter && !candidateBetter {
			return // dominated by a member
		}
		if candidateBetter && !memberBetter {
			// Candidate dominates the member: swap-delete (slot order is
			// restored by FrontPoints).
			last := len(f.entries) - 1
			f.entries[e] = f.entries[last]
			f.entries = f.entries[:last]
			copy(f.objs[e*f.k:(e+1)*f.k], f.objs[last*f.k:(last+1)*f.k])
			f.objs = f.objs[:last*f.k]
			continue
		}
		e++
	}
	cp := *pt
	cp.Nodes = nil
	f.entries = append(f.entries, FrontEntry{Slot: slot, Point: cp})
	f.objs = append(f.objs, vals...)
}

// Entries returns the fold's survivors in no particular order. The
// slice aliases the fold and is valid until the next Add.
func (f *FrontFold) Entries() []FrontEntry { return f.entries }

// FrontPoints materializes fold survivors of this plan: their slots in
// ascending order and the matching points, each with the Nodes its slot
// decodes to. es is not modified.
func (p *CompiledPlan) FrontPoints(es []FrontEntry) ([]int, []Point) {
	order := append([]FrontEntry(nil), es...)
	sort.Slice(order, func(a, b int) bool { return order[a].Slot < order[b].Slot })
	slots := make([]int, len(order))
	pts := make([]Point, len(order))
	for i, e := range order {
		slots[i] = e.Slot
		pts[i] = e.Point
		pts[i].Nodes = combo(e.Slot, p.nodes, p.nc)
	}
	return slots, pts
}
