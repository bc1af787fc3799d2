// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload against the programs built from this checkout,
// checks every output against the reference oracles, and prints the
// metrics BENCHMARK.json names as the last line of standard output.
//
//	bash perfbench/run.sh --workload dse-local --seed 1 --seconds 20 --trace 0
//
// run.sh builds ecoserve, ecoreplica and this command into .bench_build
// and runs it from the repository root. Workloads:
//
//	dse-local     a closed loop of one client; each job is one design's
//	              analysis session in-process: Compile, materialised
//	              sweep, embodied×cost front, tornado, Monte Carlo,
//	              disaggregation
//	dse-tcp       the same sweeps and fronts through shard.Coordinator
//	              over two ecoreplica processes, one connection each
//	serve-whatif  HTTP against ecoserve: a closed loop for throughput,
//	              open loop at two fixed rates, then a rate ladder for
//	              goodput
//
// With --trace 1 the run is the traced per-layer run: it records spans
// around the benchmark's calls into each layer for all three workloads
// (a quarter of the time each, serving from serve.Handler in-process so
// the handler can be spanned), plus an untraced quarter of the named
// workload for the tracing overhead, and prints the per-layer metrics.
// Spans are written to --out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	binDir   string
	outDir   string
	conns    int // client connections of serve-whatif
}

var workloads = []string{"dse-local", "dse-tcp", "serve-whatif"}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 7

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	o := &options{conns: runtime.NumCPU()}
	flag.StringVar(&o.workload, "workload", "", "dse-local, dse-tcp or serve-whatif")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	flag.StringVar(&o.binDir, "bin", ".bench_build/bin", "directory holding the ecoserve and ecoreplica binaries")
	flag.StringVar(&o.outDir, "out", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = *trace == 1
	if !known(o.workload) || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %v, --seconds > 0, --trace 0|1\n", workloads)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res *result
	var info map[string]any
	var err error
	if o.trace {
		res, info, err = runTraced(ctx, o)
	} else {
		res, info, err = runUntraced(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run info:", err)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func known(w string) bool {
	for _, k := range workloads {
		if w == k {
			return true
		}
	}
	return false
}

// runUntraced measures the named workload's end-to-end metrics.
func runUntraced(ctx context.Context, o *options) (*result, map[string]any, error) {
	var setups []float64
	var seg *segment
	switch o.workload {
	case "dse-local", "dse-tcp":
		env, times, err := setUp(func() (*dseEnv, error) { return setupDSE(ctx, o, o.workload == "dse-tcp") })
		if err != nil {
			return nil, nil, err
		}
		defer env.close()
		setups = times
		t0 := time.Now()
		// Three rounds at least, so each design's median job time is a
		// median.
		if seg, err = runDSE(ctx, env, o.seconds, 3, nil); err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		verifyDSE(ctx, env, seg)
		seg.info["wall_s"] = map[string]float64{"measure": t1.Sub(t0).Seconds(), "verify": time.Since(t1).Seconds()}
		seg.info["designs"] = designShares(env.designs)
	case "serve-whatif":
		env, times, err := setUp(func() (*serveEnv, error) { return setupServe(ctx, o, false) })
		if err != nil {
			return nil, nil, err
		}
		defer env.close()
		setups = times
		t0 := time.Now()
		if seg, err = runServe(ctx, env, o.seconds, nil, true); err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		verifyServe(ctx, env, seg)
		seg.info["wall_s"] = map[string]float64{"measure": t1.Sub(t0).Seconds(), "verify": time.Since(t1).Seconds()}
		serveInfo(env, seg)
	}
	n := seg.jobs.n()
	m := map[string]float64{
		"setup_s":      median(setups),
		"points_per_s": median(seg.pointsPerS.vs),
		"job_ms.p50":   seg.jobPct(50),
		"job_ms.p90":   seg.jobPct(90),
		"rss_peak_mb":  median(seg.rss.vs),
	}
	info := seg.info
	info["workload"], info["seed"], info["trace"] = o.workload, o.seed, 0
	info["setup_s.samples"] = setups
	info["jobs"] = n
	info["job_ms.tail_pct"] = tailPercentile(n)
	info["job_ms.p90_supported"] = supports(n, 90)
	info["jobs_per_s"] = median(seg.jobsPerS.vs)
	info["fail_ratio"] = ratio(float64(seg.failed), float64(seg.attempted))
	info["failures"] = seg.failures
	res, err := newResult(seg.attempted, seg.failed, endToEnd, m)
	return res, info, err
}

// setUp sets a workload up setupReps times, closing every environment
// but the last, and returns that one with each set-up's seconds.
func setUp[E interface{ close() }](setup func() (E, error)) (E, []float64, error) {
	var env E
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			env.close()
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, nil, err
		}
		env = e
		secs = append(secs, time.Since(t0).Seconds())
	}
	return env, secs, nil
}

// serveInfo records the serving run's workload properties and the
// latency figures by rate phase.
func serveInfo(env *serveEnv, seg *segment) {
	so := seg.srv
	var mix [nKinds]float64
	touched := map[*Design]bool{}
	for _, c := range so.calls {
		mix[c.req.kind]++
		touched[c.req.design] = true
	}
	m := map[string]float64{}
	for k, n := range mix {
		m[kindNames[k]] = round3(n / float64(len(so.calls)))
	}
	seg.info["designs"] = designShares(env.pool)
	seg.info["request_mix"] = m
	seg.info["pool_per_plan_cache"] = float64(poolSize) / float64(64)
	seg.info["designs_touched"] = len(touched)
	seg.info["connections"] = len(env.clients)
	for name, wins := range map[string][]*phaseResult{"low": so.lowWins, "high": so.highWins} {
		p := so.low
		if name == "high" {
			p = so.high
		}
		fewest := p.sent
		for _, w := range wins {
			fewest = min(fewest, w.sent)
		}
		seg.info["lat_ms.p50."+name] = p.lat.pct(50)
		seg.info["lat_ms.p99."+name] = p.lat.pct(99)
		seg.info["phase."+name] = map[string]any{
			"rate": p.rate, "sent": p.sent, "succeeded": p.ok, "failed": p.fail,
			"p99_supported": supports(p.lat.n(), 99), "lag_ms.p99": p.lag.pct(99), "backlog_max": p.backlogMax,
			"windows": len(wins), "window_calls_min": fewest, "window_p90_supported": supports(fewest, 90),
			"window_median_ms": map[string]float64{"p50": windowPct(wins, 50, latencyOf), "p90": windowPct(wins, 90, latencyOf)},
		}
	}
	// goodput_rps is decided by short ladder probes near saturation, so
	// on a host whose speed varies from second to second its run-to-run
	// spread exceeds any bound a gate could use: it is reported here,
	// not gated.
	seg.info["goodput_rps"] = seg.goodput
	seg.info["ladder"] = so.steps
	seg.info["ladder_shed"] = so.ladderShed
	seg.info["capacity_rps"] = so.capacity
	seg.info["points_per_s.windows"] = seg.pointsPerS.vs
	var w50, w90 []float64
	for _, w := range so.loopWins {
		w50, w90 = append(w50, w.svc.band(50)), append(w90, w.svc.band(90))
	}
	seg.info["closed_loop"] = map[string]any{"calls_per_window": loopCalls, "job_ms.p50.windows": w50, "job_ms.p90.windows": w90}
	seg.info["load_share"] = map[string]float64{"low": round3(rateLow / so.capacity), "high": round3(rateHigh / so.capacity)}
}

// runTraced is the traced per-layer run. Its info line maps each
// per-layer metric to the end-to-end metric and workload it should
// move.
//
// The named workload runs four equal segments in the order untraced,
// traced, traced, untraced, so warm-up order and a linear drift of the
// host's speed weigh on both sides of the tracing overhead alike; the
// first traced segment feeds the per-layer metrics. The other two
// workloads run one traced segment each.
func runTraced(ctx context.Context, o *options) (*result, map[string]any, error) {
	quarter := o.seconds / 4
	segs := map[string]*segment{}
	var plainP50, tracedP50 []float64
	attempted, failed := 0, 0
	var failures []string
	for _, w := range workloads {
		tr := newTracer()
		var run func(tr *tracer, secs float64) (*segment, error)
		var closeEnv func()
		switch w {
		case "dse-local", "dse-tcp":
			env, err := setupDSE(ctx, o, w == "dse-tcp")
			if err != nil {
				return nil, nil, err
			}
			closeEnv = env.close
			run = func(tr *tracer, secs float64) (*segment, error) {
				seg, err := runDSE(ctx, env, secs, 1, tr)
				if err == nil {
					verifyDSE(ctx, env, seg)
				}
				return seg, err
			}
		case "serve-whatif":
			env, err := setupServe(ctx, o, true)
			if err != nil {
				return nil, nil, err
			}
			closeEnv = env.close
			run = func(tr *tracer, secs float64) (*segment, error) {
				seg, err := runServe(ctx, env, secs, tr, false)
				if err == nil {
					verifyServe(ctx, env, seg)
				}
				return seg, err
			}
		}
		order := []*tracer{tr}
		secs := quarter
		if w == o.workload {
			order = []*tracer{nil, tr, newTracer(), nil}
			secs = quarter / 2
		}
		for _, t := range order {
			s, err := run(t, secs)
			if err != nil {
				closeEnv()
				return nil, nil, err
			}
			attempted += s.attempted
			failed += s.failed
			failures = append(failures, s.failures...)
			switch {
			case t == nil:
				plainP50 = append(plainP50, s.jobPct(50))
			case w == o.workload:
				tracedP50 = append(tracedP50, s.jobPct(50))
			}
			if t == tr {
				segs[w] = s
			}
		}
		closeEnv()
		segs[w].spans = tr.snapshot()
		if err := tr.write(filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed), w+".json")); err != nil {
			return nil, nil, err
		}
	}
	named := segs[o.workload]
	moves := map[string]string{}
	for _, m := range perLayer {
		moves[m.name] = m.moves
	}
	overhead := ratio(median(tracedP50), median(plainP50))
	v := layerValues(segs["dse-local"], segs["dse-tcp"], segs["serve-whatif"], named, overhead)
	info := map[string]any{
		"workload": o.workload, "seed": o.seed, "trace": 1,
		"spans":               len(segs["dse-local"].spans) + len(segs["dse-tcp"].spans) + len(segs["serve-whatif"].spans),
		"traced.job_ms.p50":   tracedP50,
		"untraced.job_ms.p50": plainP50,
		"fail_ratio":          ratio(float64(failed), float64(attempted)),
		"failures":            failures,
		"moves":               moves,
	}
	res, err := newResult(attempted, failed, perLayer, v)
	return res, info, err
}

// newResult assembles the result line; a metric that could not be
// measured (NaN or infinite) fails the run.
func newResult(attempted, failed int, defs []metricDef, values map[string]float64) (*result, error) {
	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}
