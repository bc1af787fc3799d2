package main

import (
	"math"
	"sort"
	"time"
)

// The percentiles a timing may be reported at, highest first.
var reportable = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest reportable percentile that has at
// least ten of n samples beyond it (0 when not even the median has).
func tailPercentile(n int) float64 {
	for _, p := range reportable {
		if supports(n, p) {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest rank of the p-th percentile of n samples
// (the tolerance keeps p·n/100 from rounding up past an exact integer).
func rank(n int, p float64) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

// supports reports whether n samples leave at least ten beyond the p-th
// percentile.
func supports(n int, p float64) bool { return n-rank(n, p) >= 10 }

// percentile is the nearest-rank p-th percentile of sorted (NaN when
// empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[max(0, min(rank(len(sorted), p)-1, len(sorted)-1))]
}

// median of an unsorted slice (NaN when empty); the input is not
// modified.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sample collects durations and answers percentiles over them.
type sample struct {
	vs     []float64
	sorted bool
}

func (s *sample) add(v float64) { s.vs = append(s.vs, v); s.sorted = false }

func (s *sample) addDur(d time.Duration, unit time.Duration) { s.add(float64(d) / float64(unit)) }

func (s *sample) n() int { return len(s.vs) }

func (s *sample) pct(p float64) float64 {
	if !s.sorted {
		sort.Float64s(s.vs)
		s.sorted = true
	}
	return percentile(s.vs, p)
}

// bandHalf is the half-width, in percentile points, of the band a
// smoothed percentile averages over.
const bandHalf = 5.0

// band is the smoothed p-th percentile: the mean of the samples whose
// nearest ranks lie within bandHalf percentile points of p. Job times
// cluster by design, so the order statistic at a single rank can jump
// between neighbours far apart as the seed reorders them; the band's
// mean moves only by the share of the band that changes.
func (s *sample) band(p float64) float64 {
	s.pct(p) // sorts
	n := len(s.vs)
	if n == 0 {
		return math.NaN()
	}
	lo := max(1, rank(n, p-bandHalf))
	hi := min(n, max(lo, rank(n, p+bandHalf)))
	var sum float64
	for _, v := range s.vs[lo-1 : hi] {
		sum += v
	}
	return sum / float64(hi-lo+1)
}

func (s *sample) mean() float64 {
	if len(s.vs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.vs {
		sum += v
	}
	return sum / float64(len(s.vs))
}

func (s *sample) sum() float64 {
	var sum float64
	for _, v := range s.vs {
		sum += v
	}
	return sum
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
