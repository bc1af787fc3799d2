package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// call is one scheduled HTTP request of an open-loop phase.
type call struct {
	id      int64
	req     *request
	due     time.Duration // offset from the phase start
	sampled bool          // keep the answer for verification
	resp    []byte
}

// outcome is what one call saw.
type outcome struct {
	lat, lag time.Duration // latency from the due time; generator lateness
	svc      time.Duration // from sending the call to its whole answer
	status   int
	bytes    int
	err      error
}

// phaseResult summarizes one fixed-rate phase of the open loop.
type phaseResult struct {
	rate           float64
	dur            time.Duration // nominal length (0 for a closed loop)
	elapsed        time.Duration // from the start to the last answer
	sent, ok, fail int
	lat, lag       sample // ms
	svc            sample // ms, the outcomes' svc
	backlog        []int  // queue depth sampled at each dispatch
	backlogMax     int
}

// merge adds a window of the same rate to p; p keeps no backlog trace.
func (p *phaseResult) merge(w *phaseResult) {
	p.dur += w.dur
	p.elapsed += w.elapsed
	p.sent, p.ok, p.fail = p.sent+w.sent, p.ok+w.ok, p.fail+w.fail
	p.lat.vs = append(p.lat.vs, w.lat.vs...)
	p.lat.sorted = false
	p.lag.vs = append(p.lag.vs, w.lag.vs...)
	p.lag.sorted = false
	p.svc.vs = append(p.svc.vs, w.svc.vs...)
	p.svc.sorted = false
	p.backlogMax = max(p.backlogMax, w.backlogMax)
}

// schedule draws n Poisson arrivals at rate per second from rng.
func schedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// client sends calls over one connection.
type client struct {
	hc   *http.Client
	base string
}

func newClients(n int, base string) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{base: base, hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// do sends one call and reads the whole answer. A traced call carries
// its span and request ids in headers so the in-process handler span
// can parent itself to it.
func (c *client) do(cl *call, tr *tracer) (status, n int, body []byte, err error) {
	span := tr.begin("http.client", 0, cl.id)
	defer tr.end(span)
	hr, err := http.NewRequest(http.MethodPost, c.base+cl.req.path, bytes.NewReader(cl.req.body))
	if err != nil {
		return 0, 0, nil, err
	}
	if tr != nil {
		hr.Header.Set(hdrSpan, strconv.FormatInt(span, 10))
		hr.Header.Set(hdrJob, strconv.FormatInt(cl.id, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, len(body), body, err
}

const (
	hdrSpan = "X-Bench-Span"
	hdrJob  = "X-Bench-Job"
)

// openLoop sends calls at their due times (offsets from now) over the
// clients, one call in flight per client. A call due while every client
// is busy waits in the generator's queue, and that wait counts in its
// latency. Sampled calls keep their answer body. Calls all due at once
// make a closed loop: each client sends the next call as soon as its
// previous answer arrives.
func openLoop(ctx context.Context, clients []*client, calls []*call, rate float64, dur time.Duration, tr *tracer) (*phaseResult, []outcome) {
	res := &phaseResult{rate: rate, dur: dur}
	outs := make([]outcome, len(calls))
	queue := make(chan int, len(calls)) // sized to the number of sends: dispatch never blocks
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range queue {
				cl := calls[i]
				sent := time.Now()
				status, n, body, err := c.do(cl, tr)
				outs[i].svc = time.Since(sent)
				outs[i].lat = time.Since(t0) - cl.due
				outs[i].status, outs[i].bytes, outs[i].err = status, n, err
				if cl.sampled && err == nil && status == http.StatusOK {
					cl.resp = body
				}
			}
		}(c)
	}
	timer := time.NewTimer(0)
	<-timer.C
	for i, cl := range calls {
		if wait := cl.due - time.Since(t0); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		outs[i].lag = max(0, time.Since(t0)-cl.due)
		queue <- i
		depth := len(queue)
		res.backlog = append(res.backlog, depth)
		res.backlogMax = max(res.backlogMax, depth)
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(t0)
	for _, o := range outs {
		res.sent++
		res.lag.addDur(o.lag, time.Millisecond)
		res.lat.addDur(o.lat, time.Millisecond)
		res.svc.addDur(o.svc, time.Millisecond)
		if o.err != nil || o.status != http.StatusOK {
			res.fail++
			continue
		}
		res.ok++
	}
	return res, outs
}

// backlogGrowing applies the backlog-growth rule to a phase's queue
// depths: the backlog grows when the mean depth over the last quarter of
// the dispatches exceeds the mean over the first quarter by more than
// slack. An overloaded program's backlog grows by the excess rate times
// the phase length; a busy but keeping-up one's only fluctuates.
func backlogGrowing(depths []int, slack int) bool {
	q := len(depths) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	return mean(depths[len(depths)-q:]) > mean(depths[:q])+float64(slack)
}

// ladder is the fixed rate ladder behind goodput_rps: geometric steps
// from lo, each ladderStep times the previous, up to hi.
func ladder(lo, hi, step float64) []float64 {
	var rs []float64
	for r := lo; r <= hi*(1+1e-9); r *= step {
		rs = append(rs, math.Round(r))
	}
	return rs
}

// stepVerdict decides whether a ladder step met the goodput rules: no
// failed call, a tail latency within limitMS, and no growing backlog
// (growth beyond one percent of the step's calls, and at least beyond
// the client count). The tail is the p99 when the step has enough calls
// for it, else the highest percentile with at least ten calls beyond it.
func stepVerdict(p *phaseResult, limitMS float64, clients int) (bool, string) {
	tail := 99.0
	if !supports(p.lat.n(), tail) {
		tail = tailPercentile(p.lat.n())
	}
	switch {
	case p.sent == 0:
		return false, "no calls"
	case p.fail > 0:
		return false, fmt.Sprintf("%d failed", p.fail)
	case p.lat.pct(tail) > limitMS:
		return false, fmt.Sprintf("p%g %.1fms > %.0fms", tail, p.lat.pct(tail), limitMS)
	case backlogGrowing(p.backlog, max(clients, p.sent/100)):
		return false, "backlog growing"
	}
	return true, "ok"
}

// searchLadder returns the index of the highest ladder step that passes
// probe, searching down from start (the highest step not above the
// measured capacity) for at most tries steps; -1 when none passed.
// Steps above the capacity cannot pass: they offer more than the
// program completes, so their backlog grows.
func searchLadder(start, tries int, probe func(i int) bool) int {
	for i := start; i >= 0 && i > start-tries; i-- {
		if probe(i) {
			return i
		}
	}
	return -1
}

// highestStep is the index of the highest ladder rate not above limit
// (-1 when even the first is above it).
func highestStep(rates []float64, limit float64) int {
	i := -1
	for i+1 < len(rates) && rates[i+1] <= limit {
		i++
	}
	return i
}
