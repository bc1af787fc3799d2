package main

import (
	"runtime"
	"time"
)

// segment is one measured stretch of a workload: its outcome counts,
// job (or request) latencies, delivered points and the layer counters
// the traced run reads.
type segment struct {
	attempted, failed int
	failures          []string
	jobs              sample  // ms per job or request
	goodput           float64 // requests per second the ladder sustained
	// Points and jobs per second: per round (DSE) or of the closed loop
	// (serving). Peak RSS in MB: per round or fixed-rate phase.
	pointsPerS, jobsPerS, rss sample
	digests                   map[*Design]outDigest
	perDesign                 map[*Design]int
	gc                        gcDelta
	dse                       *dseTotals
	srv                       *serveTotals
	spans                     []Span
	info                      map[string]any
}

func newSegment() *segment {
	return &segment{digests: map[*Design]outDigest{}, perDesign: map[*Design]int{}, info: map[string]any{}}
}

// jobPct is the segment's job_ms.p<p>, a smoothed percentile (see
// sample.band): over every job of a DSE segment, from the rate windows
// of a serving one (serveTotals.jobPct).
func (s *segment) jobPct(p float64) float64 {
	if s.srv != nil {
		return s.srv.jobPct(p)
	}
	return s.jobs.band(p)
}

const maxFailureNotes = 5

func (s *segment) fail(msg string) { s.failN(1, msg) }

func (s *segment) failN(n int, msg string) {
	s.failed += n
	if len(s.failures) < maxFailureNotes {
		s.failures = append(s.failures, msg)
	}
}

// failDesign counts every successful job of d as failed: their outputs
// share the digest that failed verification.
func (s *segment) failDesign(d *Design, err error) {
	s.failN(s.perDesign[d], d.Sys.Name+": "+err.Error())
}

// gcDelta is the Go runtime's allocation and collection work over a
// segment.
type gcDelta struct {
	allocBytes uint64
	cycles     uint32
	pause      time.Duration
}

type memSnap runtime.MemStats

func memStats() *memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memSnap)(&m)
}

func (m *memSnap) since(prev *memSnap) gcDelta {
	return gcDelta{
		allocBytes: m.TotalAlloc - prev.TotalAlloc,
		cycles:     m.NumGC - prev.NumGC,
		pause:      time.Duration(m.PauseTotalNs - prev.PauseTotalNs),
	}
}
