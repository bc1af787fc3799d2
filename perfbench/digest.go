package main

import (
	"hash/fnv"
	"math"

	"ecochip/internal/explore"
	"ecochip/internal/sensitivity"
	"ecochip/internal/uncertainty"
)

// digest folds outputs into a 64-bit hash of their exact bits
// (Float64bits for every float), FNV-1a over 64-bit words, so two
// outputs digest alike only if they are bit-identical (up to hash
// collisions).
type digest struct{ sum uint64 }

func newDigest() *digest { return &digest{sum: 14695981039346656037} }

func (d *digest) u64(v uint64) {
	d.sum ^= v
	d.sum *= 1099511628211
}

func (d *digest) f(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) {
	h := fnv.New64a()
	h.Write([]byte(s))
	d.u64(h.Sum64())
}

func (d *digest) points(pts []explore.Point) *digest {
	d.u64(uint64(len(pts)))
	for _, p := range pts {
		d.u64(uint64(len(p.Nodes)))
		for _, n := range p.Nodes {
			d.u64(uint64(n))
		}
		d.f(p.EmbodiedKg)
		d.f(p.TotalKg)
		d.f(p.CostUSD)
		d.f(p.PackageAreaMM2)
	}
	return d
}

func (d *digest) tornado(rs []sensitivity.Result) *digest {
	d.u64(uint64(len(rs)))
	for _, r := range rs {
		d.str(r.Factor)
		d.f(r.BaseKg)
		d.f(r.LowKg)
		d.f(r.HighKg)
	}
	return d
}

func (d *digest) dist(m uncertainty.Distribution) *digest {
	d.u64(uint64(m.Samples))
	for _, v := range []float64{m.MeanKg, m.P5Kg, m.P50Kg, m.P95Kg, m.MinKg, m.MaxKg} {
		d.f(v)
	}
	return d
}

func (d *digest) plan(p *explore.Plan) *digest {
	d.u64(uint64(p.Steps))
	d.f(p.EmbodiedKg)
	d.f(p.InitialKg)
	d.u64(uint64(len(p.Groups)))
	for _, g := range p.Groups {
		d.u64(uint64(len(g)))
		for _, n := range g {
			d.str(n)
		}
	}
	return d
}
