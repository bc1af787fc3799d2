package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/kernel"
	"ecochip/internal/serve"
	"ecochip/internal/tech"
)

// Serving workload parameters.
const (
	poolSize       = 4 * serve.DefaultPlanCacheSize
	zipfS          = 1.1
	frontMaxPoints = 4096
	variants       = 4    // swap and perturbation variants per design
	warmCalls      = 1500 // closed-loop calls during set-up
	loopCalls      = 4000 // calls of each closed-loop window
	verifyPerKind  = 30   // sampled answers checked per request kind
)

// Request kinds and their share of the mix.
const (
	kindSwap = iota
	kindPerturb
	kindFront
	kindDisagg
	kindStream
	nKinds
)

var (
	kindNames = [nKinds]string{"swap", "perturb", "front", "disagg", "stream"}
	kindMix   = [nKinds]float64{0.50, 0.25, 0.15, 0.07, 0.03}
)

// request is one pre-encoded request of the pool (every request is a
// POST): the body the program receives plus what verification needs to
// recompute the answer.
type request struct {
	kind   int
	path   string
	body   []byte
	design *Design
	points int // design points the answer covers
	whatif *serve.WhatIfRequest
	sweep  *serve.SweepRequest
}

// serveEnv is the set-up state of serve-whatif: the design pool, its
// requests, the server (an ecoserve process, or serve.Handler in this
// process for the traced run) and the client connections.
type serveEnv struct {
	db      *tech.DB
	seed    int64
	pool    []*Design
	reqs    [][nKinds][]*request // per design, per kind
	kid     *child
	hs      *http.Server
	tr      atomic.Pointer[tracer] // handler spans, in-process only
	base    string
	clients []*client
	nextID  int64
}

// genRequests builds and encodes every request of the pool.
func genRequests(rng *rand.Rand, pool []*Design) ([][nKinds][]*request, error) {
	out := make([][nKinds][]*request, len(pool))
	for i, d := range pool {
		nc := len(d.Sys.Chiplets)
		add := func(kind int, path string, points int, v any) error {
			b, err := json.Marshal(v)
			if err != nil {
				return err
			}
			r := &request{kind: kind, path: path, body: b, design: d, points: points}
			switch v := v.(type) {
			case *serve.WhatIfRequest:
				r.whatif = v
			case *serve.SweepRequest:
				r.sweep = v
			}
			out[i][kind] = append(out[i][kind], r)
			return nil
		}
		for v := 0; v < variants; v++ {
			swap := map[string]int{}
			for k := 0; k < 1+rng.Intn(2); k++ {
				swap[d.Sys.Chiplets[rng.Intn(nc)].Name] = d.Nodes[rng.Intn(len(d.Nodes))]
			}
			if err := add(kindSwap, "/v1/whatif", 1, &serve.WhatIfRequest{System: d.Sys, Nodes: d.Nodes, Swap: swap}); err != nil {
				return nil, err
			}
			p := &serve.WhatIfRequest{System: d.Sys}
			if v%2 == 0 {
				p.AreaScale = map[string]float64{d.Sys.Chiplets[rng.Intn(nc)].Name: 0.8 + 0.4*rng.Float64()}
			} else {
				p.VolumeScale = 0.5 + 1.5*rng.Float64()
			}
			if err := add(kindPerturb, "/v1/whatif", 1, p); err != nil {
				return nil, err
			}
		}
		fn := d.frontNodes(frontMaxPoints)
		front := &serve.SweepRequest{System: d.Sys, Nodes: fn, Objectives: []string{"embodied", "cost"}}
		pts := ipow(len(fn), nc)
		if err := add(kindFront, "/v1/sweep", pts, front); err != nil {
			return nil, err
		}
		if err := add(kindStream, "/v1/sweep/stream", pts, front); err != nil {
			return nil, err
		}
		if err := add(kindDisagg, "/v1/disaggregate", 1, &serve.DisaggregateRequest{System: d.Sys}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stream draws calls from the request pool: designs Zipf-popular over
// the pool, kinds by the mix, variants uniformly.
type stream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	env  *serveEnv
}

func (env *serveEnv) newStream(salt int64) *stream {
	rng := rand.New(rand.NewSource(env.seed*7919 + salt))
	return &stream{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(env.pool)-1)), env: env}
}

func (s *stream) next() *request {
	d := s.zipf.Uint64()
	u := s.rng.Float64()
	kind := 0
	for ; kind < nKinds-1 && u >= kindMix[kind]; kind++ {
		u -= kindMix[kind]
	}
	rs := s.env.reqs[d][kind]
	return rs[s.rng.Intn(len(rs))]
}

// calls schedules Poisson arrivals at rate for dur, drawing requests from
// the stream; every 5th call is a verification candidate.
func (s *stream) calls(rate float64, dur time.Duration) []*call {
	due := schedule(s.rng, rate, dur)
	out := make([]*call, len(due))
	for i, t := range due {
		s.env.nextID++
		out[i] = &call{id: s.env.nextID, req: s.next(), due: t, sampled: s.env.nextID%5 == 0}
	}
	return out
}

// burst draws n calls all due at once: a closed loop over the clients.
func (s *stream) burst(n int) []*call {
	out := make([]*call, n)
	for i := range out {
		s.env.nextID++
		out[i] = &call{id: s.env.nextID, req: s.next()}
	}
	return out
}

// again returns fresh calls (new ids, due at once) of the same requests.
func (env *serveEnv) again(calls []*call) []*call {
	out := make([]*call, len(calls))
	for i, c := range calls {
		env.nextID++
		out[i] = &call{id: env.nextID, req: c.req}
	}
	return out
}

// setupServe generates the pool and its requests, starts the server and
// warms it up with a closed-loop pass of warmCalls calls.
func setupServe(ctx context.Context, o *options, inProcess bool) (*serveEnv, error) {
	env := &serveEnv{db: tech.Default(), seed: o.seed}
	rng := rand.New(rand.NewSource(o.seed))
	env.pool = poolDesigns(rng, env.db, poolSize)
	var err error
	if env.reqs, err = genRequests(rng, env.pool); err != nil {
		return nil, err
	}
	if inProcess {
		err = env.startInProcess()
	} else {
		env.kid, err = startChild(o.binDir, "ecoserve", "-addr", "127.0.0.1:0")
		if err == nil {
			env.base = "http://" + env.kid.addr
		}
	}
	if err != nil {
		return nil, err
	}
	env.clients = newClients(o.conns, env.base)
	warm := env.newStream(-1).burst(warmCalls)
	if p, _ := openLoop(ctx, env.clients, warm, 0, 0, nil); p.fail > 0 {
		env.close()
		return nil, fmt.Errorf("warm-up: %d of %d calls failed", p.fail, p.sent)
	}
	return env, nil
}

// startInProcess serves serve.Handler from this process on a loopback
// port, wrapped in a span per request when a tracer is set.
func (env *serveEnv) startInProcess() error {
	h := serve.Handler(serve.NewServer(env.db, serve.Config{}))
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := env.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		job, _ := strconv.ParseInt(r.Header.Get(hdrJob), 10, 64)
		id := tr.begin("serve.Handler.ServeHTTP", parent, job)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	env.hs = &http.Server{Handler: wrapped}
	go env.hs.Serve(ln)
	env.base = "http://" + ln.Addr().String()
	return nil
}

func (env *serveEnv) close() {
	if env.clients != nil {
		closeClients(env.clients)
	}
	if env.kid != nil {
		env.kid.stop()
	}
	if env.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		env.hs.Shutdown(ctx)
	}
}

// resetRSS restarts the peak-RSS count of this process and ecoserve.
func (env *serveEnv) resetRSS() {
	resetPeakRSS(0)
	if env.kid != nil {
		env.kid.resetPeakRSS()
	}
}

// rssMB is the summed peak RSS of this process and ecoserve since the
// last resetRSS.
func (env *serveEnv) rssMB() float64 {
	mb := peakRSSMB(0)
	if env.kid != nil {
		mb += env.kid.peakRSSMB()
	}
	return mb
}

// stats fetches GET /v1/stats.
func (env *serveEnv) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := env.clients[0].hc.Get(env.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// verifyCall recomputes a sampled answer cold, directly from the library,
// and compares every float bit for bit.
func (env *serveEnv) verifyCall(ctx context.Context, c *call) error {
	r := c.req
	switch r.kind {
	case kindSwap:
		var got serve.WhatIfResponse
		if err := json.Unmarshal(c.resp, &got); err != nil || got.Point == nil {
			return fmt.Errorf("swap answer: %v", err)
		}
		plan, err := explore.Compile(r.whatif.System, env.db, r.whatif.Nodes, cost.DefaultParams())
		if err != nil {
			return err
		}
		assign := make([]int, len(r.whatif.System.Chiplets))
		for i, ch := range r.whatif.System.Chiplets {
			assign[i] = ch.NodeNm
			if nm, ok := r.whatif.Swap[ch.Name]; ok {
				assign[i] = nm
			}
		}
		want, err := plan.EvalPoint(ctx, assign)
		if err != nil {
			return err
		}
		return samePoints([]explore.Point{*got.Point}, []explore.Point{want})
	case kindPerturb:
		var got serve.WhatIfResponse
		if err := json.Unmarshal(c.resp, &got); err != nil || got.Totals == nil {
			return fmt.Errorf("perturbation answer: %v", err)
		}
		sys := perturbed(r.whatif)
		plan, err := kernel.CompileParams(sys, env.db)
		if err != nil {
			return err
		}
		sc, err := plan.NewScratch()
		if err != nil {
			return err
		}
		want, err := plan.Eval(sc, sys, env.db, 0)
		if err != nil {
			return err
		}
		if *got.Totals != want {
			return fmt.Errorf("perturbation totals differ from the cold computation")
		}
		return nil
	case kindFront, kindStream:
		var got serve.SweepResponse
		if r.kind == kindFront {
			if err := json.Unmarshal(c.resp, &got); err != nil {
				return err
			}
		} else {
			lines := bytes.Split(bytes.TrimSpace(c.resp), []byte("\n"))
			var last serve.StreamLine
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Result == nil {
				return fmt.Errorf("stream has no result line: %v", err)
			}
			got = *last.Result
		}
		plan, err := explore.Compile(r.sweep.System, env.db, r.sweep.Nodes, cost.DefaultParams())
		if err != nil {
			return err
		}
		pts, err := plan.RunCtx(ctx)
		if err != nil {
			return err
		}
		return samePoints(got.Points, explore.ParetoFront(pts, frontObjectives...))
	case kindDisagg:
		var got serve.DisaggregateResponse
		if err := json.Unmarshal(c.resp, &got); err != nil {
			return err
		}
		want, err := explore.DisaggregateReference(ctx, r.design.Sys, env.db)
		if err != nil {
			return err
		}
		gp := &explore.Plan{Groups: got.Groups, EmbodiedKg: got.EmbodiedKg, InitialKg: got.InitialKg, Steps: got.Steps}
		if newDigest().plan(gp).sum != newDigest().plan(want).sum {
			return fmt.Errorf("disaggregation differs from DisaggregateReference")
		}
		return nil
	}
	return fmt.Errorf("unknown request kind %d", r.kind)
}

func samePoints(got, want []explore.Point) error {
	if newDigest().points(got).sum != newDigest().points(want).sum {
		return fmt.Errorf("%d answered points differ from the %d cold ones", len(got), len(want))
	}
	return nil
}

// perturbed applies a perturbation what-if to a copy of its system: area
// scales multiply the named chiplets' transistor budgets, a volume scale
// multiplies the system volume and every chiplet's manufactured parts.
func perturbed(w *serve.WhatIfRequest) *core.System {
	sys := *w.System
	sys.Chiplets = append([]core.Chiplet(nil), w.System.Chiplets...)
	for name, f := range w.AreaScale {
		for i := range sys.Chiplets {
			if sys.Chiplets[i].Name == name {
				sys.Chiplets[i].Transistors *= f
			}
		}
	}
	if w.VolumeScale != 0 {
		vol := sys.SystemVolume
		if vol == 0 {
			vol = core.DefaultVolume
		}
		sys.SystemVolume = max(1, int(float64(vol)*w.VolumeScale))
		for i := range sys.Chiplets {
			parts := sys.Chiplets[i].ManufacturedParts
			if parts == 0 {
				parts = core.DefaultVolume
			}
			sys.Chiplets[i].ManufacturedParts = max(1, int(float64(parts)*w.VolumeScale))
		}
	}
	return &sys
}

// Open-loop settings of serve-whatif. The fixed rates are about a
// quarter and a half of the closed-loop capacity over two connections
// measured on a 2-vCPU host (about 2800 req/s, 2100-3150 from run to
// run; capacity_rps in the run info). At three quarters (2000 req/s) two of five runs on that host
// met a slow spell that pushed the offered load past the capacity, and
// the high rate's latencies grew to seconds.
const (
	rateLow     = 650.0 // requests per second
	rateHigh    = 1300.0
	ladderLo    = 400.0
	ladderHi    = 6400.0
	ladderStep  = 1.15
	ladderTries = 3 // ladder steps probed at most, down from the capacity
	p99LimitMS  = 100.0
)

// A serving run measures in serveCycles cycles of a closed-loop window
// (full runs only), a low-rate and a high-rate window, and reports
// medians over the windows, so a slow spell of the host moves a few
// windows, not the figures. Every closed-loop window of a run sends the
// same seeded loopCalls requests, so the windows differ only in how
// fast the server answered them. The fixed-rate windows of a full run
// take sharePhase of --seconds per rate, the ladder probes shareLadder.
const (
	serveCycles = 7
	sharePhase  = 0.25
	shareLadder = 0.2
)

// serveTotals keeps what a serving segment measured beyond its
// latencies: the closed-loop windows, the fixed-rate windows (merged per
// rate, and one by one), the ladder steps tried, the server's counters
// around the segment and every call made.
type serveTotals struct {
	low, high         *phaseResult
	loopWins          []*phaseResult
	lowWins, highWins []*phaseResult
	capacity          float64 // completions per second of the closed loop
	ladderShed        int     // 429s answered to ladder probes
	steps             []map[string]any
	before, after     serve.Stats
	respBytes         sample
	calls             []*call
}

// windowPct is the median over windows of each window's smoothed p-th
// percentile of the sample of picks.
func windowPct(wins []*phaseResult, p float64, of func(*phaseResult) *sample) float64 {
	vs := make([]float64, len(wins))
	for i, w := range wins {
		vs[i] = of(w).band(p)
	}
	return median(vs)
}

func latencyOf(w *phaseResult) *sample { return &w.lat }
func serviceOf(w *phaseResult) *sample { return &w.svc }

// jobPct is serving's job_ms.p<p>. A full run's is the median over its
// closed-loop windows of each window's smoothed percentile of the time
// from sending a call to its whole answer. The windows replay the same
// calls, so the figure moves only with how fast the server answers.
// The latency of the fixed-rate windows, counted from the due time,
// also moves with the host's spare capacity: queueing grows
// nonlinearly as the load nears capacity, and on a host whose speed
// varies from run to run its spread exceeded a usable bound. It is
// reported in the run info (lat_ms.*), not gated. A traced run has no
// closed loop; its figure, which only the tracing overhead uses, is the
// geometric mean of the low and the high rate's window medians.
func (t *serveTotals) jobPct(p float64) float64 {
	if len(t.loopWins) > 0 {
		return windowPct(t.loopWins, p, serviceOf)
	}
	return math.Sqrt(windowPct(t.lowWins, p, latencyOf) * windowPct(t.highWins, p, latencyOf))
}

// runServe drives the serving workload. A full run cycles through a
// closed-loop window (whose answered points per second and service
// times give the run's points_per_s and job_ms), a low-rate and a
// high-rate window, then walks the goodput ladder; otherwise the
// fixed-rate windows take the whole run.
func runServe(ctx context.Context, env *serveEnv, seconds float64, tr *tracer, full bool) (*segment, error) {
	seg := newSegment()
	tot := &serveTotals{low: &phaseResult{rate: rateLow}, high: &phaseResult{rate: rateHigh}}
	seg.srv = tot
	env.tr.Store(tr)
	defer env.tr.Store(nil)
	before, err := env.stats()
	if err != nil {
		return nil, err
	}
	ms := memStats()
	secs := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	win := secs(0.5 / serveCycles)
	if full {
		win = secs(sharePhase / serveCycles)
	}
	st := env.newStream(0)
	// tally counts the calls' outcomes into the segment and returns how
	// many were answered and the points they covered. A 429 to a ladder
	// probe is the overload the ladder looks for, not a failure; any
	// other failed call is one.
	tally := func(calls []*call, outs []outcome, probe bool) (ok int, points float64) {
		tot.calls = append(tot.calls, calls...)
		for i, o := range outs {
			if probe && o.err == nil && o.status == http.StatusTooManyRequests {
				tot.ladderShed++
				continue
			}
			seg.attempted++
			if o.err != nil || o.status != http.StatusOK {
				seg.fail(fmt.Sprintf("%s call %d: status %d, %v", kindNames[calls[i].req.kind], calls[i].id, o.status, o.err))
				continue
			}
			ok++
			points += float64(calls[i].req.points)
			tot.respBytes.add(float64(o.bytes))
		}
		return ok, points
	}
	fixed := func(rate float64) *phaseResult {
		calls := st.calls(rate, win)
		env.resetRSS()
		p, outs := openLoop(ctx, env.clients, calls, rate, win, tr)
		seg.rss.add(env.rssMB())
		tally(calls, outs, false)
		return p
	}
	var completions sample
	var loop []*call
	if full {
		loop = st.burst(loopCalls)
	}
	for c := 0; c < serveCycles && ctx.Err() == nil; c++ {
		if full {
			// A closed-loop window answers at a rate the server alone
			// sets.
			calls := env.again(loop)
			p, outs := openLoop(ctx, env.clients, calls, 0, 0, nil)
			tot.loopWins = append(tot.loopWins, p)
			ok, points := tally(calls, outs, false)
			completions.add(float64(ok) / p.elapsed.Seconds())
			seg.pointsPerS.add(points / p.elapsed.Seconds())
		}
		lo, hi := fixed(rateLow), fixed(rateHigh)
		tot.lowWins, tot.highWins = append(tot.lowWins, lo), append(tot.highWins, hi)
		tot.low.merge(lo)
		tot.high.merge(hi)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seg.gc = memStats().since(ms)
	jobs := []*sample{&tot.low.lat, &tot.high.lat}
	if full {
		jobs = nil
		for _, w := range tot.loopWins {
			jobs = append(jobs, &w.svc)
		}
	}
	for _, j := range jobs {
		seg.jobs.vs = append(seg.jobs.vs, j.vs...)
	}
	if full {
		tot.capacity = median(completions.vs)
		seg.jobsPerS.add(tot.capacity)
		// The ladder: open-loop probes walk down the fixed ladder from
		// the highest step not above the closed loop's capacity until
		// one meets the rules.
		rates := ladder(ladderLo, ladderHi, ladderStep)
		stepDur := secs(shareLadder / ladderTries)
		searchLadder(highestStep(rates, tot.capacity), ladderTries, func(i int) bool {
			calls := st.calls(rates[i], stepDur)
			p, outs := openLoop(ctx, env.clients, calls, rates[i], stepDur, nil)
			tally(calls, outs, true)
			pass, why := stepVerdict(p, p99LimitMS, len(env.clients))
			tot.steps = append(tot.steps, map[string]any{
				"rate": rates[i], "sent": p.sent, "ok": p.ok, "failed": p.fail,
				"p99_ms": p.lat.pct(99), "lag_p99_ms": p.lag.pct(99), "backlog_max": p.backlogMax, "verdict": why,
			})
			if pass {
				seg.goodput = float64(p.ok) / p.dur.Seconds()
			}
			return pass
		})
	}
	after, err := env.stats()
	if err != nil {
		return nil, err
	}
	tot.before, tot.after = before, after
	return seg, nil
}

// verifyServe checks up to verifyPerKind sampled answers of each kind
// against a cold library computation; each mismatch is a failure.
func verifyServe(ctx context.Context, env *serveEnv, seg *segment) {
	var checked [nKinds]int
	for _, c := range seg.srv.calls {
		k := c.req.kind
		if c.resp == nil || checked[k] >= verifyPerKind {
			continue
		}
		checked[k]++
		if err := env.verifyCall(ctx, c); err != nil {
			seg.fail(fmt.Sprintf("%s call %d: %v", kindNames[k], c.id, err))
		}
	}
	v := map[string]int{}
	for k, n := range checked {
		v[kindNames[k]] = n
	}
	seg.info["verified"] = v
}
