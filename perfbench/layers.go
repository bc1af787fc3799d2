package main

import (
	"time"

	"ecochip/internal/lru"
	"ecochip/internal/serve"
)

// metricDef is one reported metric. For a per-layer metric, moves names
// the end-to-end metric and workload it should move; BENCHMARK.json
// lists the same names and units.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics of an untraced run. Every workload reports
// every one: a job is a DSE job (dse-local, dse-tcp) or one HTTP request
// of the closed loop, timed from its send to its whole answer
// (serve-whatif). Serving's points_per_s are the points answered per
// second of that closed loop, a rate the server sets. Serving's
// fixed-rate latencies and goodput are reported beside them, not gated:
// see serveTotals.jobPct and serveInfo.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"points_per_s", "points/s", ""},
	{"job_ms.p50", "ms", ""},
	{"job_ms.p90", "ms", ""},
	{"rss_peak_mb", "MB", ""},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"explore.compile_us.p50", "us", "setup_s and job_ms.p50 on dse-local; job_ms.p90 on serve-whatif (plan-cache misses)"},
	{"explore.run_ns_per_point", "ns", "points_per_s and job_ms.* on dse-local"},
	{"explore.front_ns_per_point", "ns", "points_per_s and job_ms.* on dse-local"},
	{"explore.gray_step_ratio", "ratio", "points_per_s and job_ms.* on dse-local"},
	{"explore.disagg_ms.p50", "ms", "job_ms.* on dse-local"},
	{"floorplan.fastpath_ratio", "ratio", "points_per_s on dse-local, most on identical-die designs"},
	{"floorplan.fallbacks_per_kpoint", "count", "points_per_s on dse-local"},
	{"floorplan.relayout_depth", "nodes", "points_per_s on dse-local"},
	{"kernel.pkgmemo_hit_ratio", "ratio", "points_per_s on dse-local"},
	{"kernel.pkgmemo_collisions", "count", "points_per_s on dse-local"},
	{"kernel.table_bytes", "B", "points_per_s on dse-local"},
	{"sensitivity.tornado_ms.p50", "ms", "job_ms.p50 on dse-local"},
	{"uncertainty.mc_ns_per_sample", "ns", "job_ms.p50 on dse-local"},
	{"shard.sweep_ms.p50", "ms", "points_per_s and job_ms.p90 on dse-tcp; none on dse-local"},
	{"shard.front_ms.p50", "ms", "points_per_s and job_ms.p90 on dse-tcp; none on dse-local"},
	{"shard.leases_per_sweep", "count", "points_per_s and job_ms.p90 on dse-tcp"},
	{"shard.useful_ratio", "ratio", "points_per_s and job_ms.p90 on dse-tcp"},
	{"shard.hedges_fired", "count", "job_ms.p90 on dse-tcp"},
	{"shard.replica_failures", "count", "job_ms.p90 on dse-tcp"},
	{"shard.local_blocks", "count", "job_ms.p90 on dse-tcp"},
	{"wire.frames_per_sweep", "count", "points_per_s and job_ms.p90 on dse-tcp"},
	{"wire.bytes_per_point", "B", "points_per_s on dse-tcp"},
	{"netx.dials", "count", "setup_s and job_ms.p90 on dse-tcp"},
	{"netx.reconnects", "count", "job_ms.p90 on dse-tcp"},
	{"http.client_us.p50", "us", "job_ms.p50 on serve-whatif"},
	{"http.client_us.p99", "us", "job_ms.p90 on serve-whatif"},
	{"serve.handler_us.p50", "us", "job_ms.p50 on serve-whatif"},
	{"serve.handler_us.p99", "us", "job_ms.p90 on serve-whatif"},
	{"http.overhead_us.p50", "us", "job_ms.p50 on serve-whatif"},
	{"serve.resp_bytes.mean", "B", "job_ms.p50 on serve-whatif"},
	{"lru.sweep.hit_ratio", "ratio", "job_ms.p90 (and the reported goodput) on serve-whatif"},
	{"lru.param.hit_ratio", "ratio", "job_ms.p90 (and the reported goodput) on serve-whatif"},
	{"lru.disagg.hit_ratio", "ratio", "job_ms.p90 (and the reported goodput) on serve-whatif"},
	{"lru.builds", "count", "job_ms.p90 (and the reported goodput) on serve-whatif"},
	{"lru.evictions", "count", "job_ms.p90 (and the reported goodput) on serve-whatif"},
	{"lru.coalesced", "count", "job_ms.p90 on serve-whatif"},
	{"admit.admitted", "count", "the reported goodput on serve-whatif"},
	{"admit.shed", "count", "the reported goodput on serve-whatif (a shed request is a failure)"},
	{"loadgen.lag_ms.p99", "ms", "validity of the open loop on serve-whatif (must stay far below the reported lat_ms.p50.low)"},
	{"loadgen.backlog_max", "count", "validity of the open loop on serve-whatif"},
	{"go.alloc_bytes_per_op", "B", "points_per_s and rss_peak_mb on the traced workload"},
	{"go.gc_cycles", "count", "points_per_s and rss_peak_mb on the traced workload"},
	{"go.gc_pause_ms", "ms", "job_ms.p90 on the traced workload"},
	{"trace.overhead_ratio", "ratio", "traced / untraced job_ms.p50 of the named workload: the tracing overhead"},
}

// layerValues computes every per-layer metric from the traced segments
// of the three workloads; named is the segment of the workload the run
// was asked for, overhead its traced / untraced job_ms.p50.
func layerValues(local, tcp, srv, named *segment, overhead float64) map[string]float64 {
	v := map[string]float64{}
	us, ns, ms := time.Microsecond, time.Nanosecond, time.Millisecond

	// explore, floorplan, kernel, sensitivity, uncertainty: dse-local.
	sp := local.spans
	lt := local.dse
	pts := float64(lt.points)
	v["explore.compile_us.p50"] = spanSample(sp, nil, "explore.Compile", us).pct(50)
	v["explore.run_ns_per_point"] = ratio(spanSample(sp, nil, "explore.CompiledPlan.RunCtx", ns).sum(), pts)
	v["explore.front_ns_per_point"] = ratio(spanSample(sp, nil, "explore.CompiledPlan.ParetoFrontCtx", ns).sum(), pts)
	walked := float64(lt.planPoints)
	v["explore.gray_step_ratio"] = ratio(float64(lt.graySteps), walked)
	v["explore.disagg_ms.p50"] = spanSample(sp, nil, "explore.Disaggregate", ms).pct(50)
	v["floorplan.fastpath_ratio"] = lt.fp.ReuseRate()
	v["floorplan.fallbacks_per_kpoint"] = ratio(float64(lt.fp.Fallbacks+lt.fp.DiffFallbacks)*1000, walked)
	v["floorplan.relayout_depth"] = lt.fp.MeanRelayoutDepth()
	v["kernel.pkgmemo_hit_ratio"] = ratio(float64(lt.memo.Hits), float64(lt.memo.Hits+lt.memo.Misses))
	v["kernel.pkgmemo_collisions"] = float64(lt.memo.Collisions)
	v["kernel.table_bytes"] = ratio(lt.tableBytes, float64(lt.plans))
	v["sensitivity.tornado_ms.p50"] = spanSample(sp, nil, "sensitivity.TornadoCtx", ms).pct(50)
	v["uncertainty.mc_ns_per_sample"] = ratio(spanSample(sp, nil, "uncertainty.RunCtx", ns).sum(), float64(mcSamples*local.jobs.n()))

	// shard, wire, netx: dse-tcp.
	sp = tcp.spans
	st := tcp.dse.shard
	runs := float64(tcp.dse.sweeps)
	w := tcp.dse.wire
	v["shard.sweep_ms.p50"] = spanSample(sp, nil, "shard.Coordinator.Sweep", ms).pct(50)
	v["shard.front_ms.p50"] = spanSample(sp, nil, "shard.Coordinator.ParetoFront", ms).pct(50)
	v["shard.leases_per_sweep"] = ratio(float64(st.LeasesGranted), runs)
	v["shard.useful_ratio"] = ratio(float64(st.BlocksCompleted), float64(st.BlocksCompleted+st.BlocksDeduped+st.BlocksRequeued+st.BlocksLocal))
	v["shard.hedges_fired"] = float64(st.HedgesFired)
	v["shard.replica_failures"] = float64(st.ReplicaFailures)
	v["shard.local_blocks"] = float64(st.BlocksLocal)
	v["wire.frames_per_sweep"] = ratio(float64(w.FramesIn+w.FramesOut), runs)
	v["wire.bytes_per_point"] = ratio(float64(w.BytesIn+w.BytesOut), float64(tcp.dse.points))
	v["netx.dials"] = float64(w.Dials)
	v["netx.reconnects"] = float64(w.Reconnects)

	// http, serve, lru, admission, load generator: serve-whatif.
	sp = srv.spans
	self := selfTimes(sp)
	client := spanSample(sp, nil, "http.client", us)
	handler := spanSample(sp, nil, "serve.Handler.ServeHTTP", us)
	v["http.client_us.p50"] = client.pct(50)
	v["http.client_us.p99"] = client.pct(99)
	v["serve.handler_us.p50"] = handler.pct(50)
	v["serve.handler_us.p99"] = handler.pct(99)
	v["http.overhead_us.p50"] = spanSample(sp, self, "http.client", us).pct(50)
	so := srv.srv
	v["serve.resp_bytes.mean"] = so.respBytes.mean()
	b, a := so.before, so.after
	hit := func(after, before lru.Stats) float64 {
		h := after.Hits - before.Hits
		return ratio(float64(h), float64(h+after.Misses-before.Misses+after.Coalesced-before.Coalesced))
	}
	v["lru.sweep.hit_ratio"] = hit(a.Sweeps, b.Sweeps)
	v["lru.param.hit_ratio"] = hit(a.Params, b.Params)
	v["lru.disagg.hit_ratio"] = hit(a.Disaggregates, b.Disaggregates)
	var builds, evictions, coalesced float64
	for _, f := range []func(serve.Stats) lru.Stats{
		func(s serve.Stats) lru.Stats { return s.Sweeps },
		func(s serve.Stats) lru.Stats { return s.Params },
		func(s serve.Stats) lru.Stats { return s.Disaggregates },
	} {
		builds += float64(f(a).Builds - f(b).Builds)
		evictions += float64(f(a).Evictions - f(b).Evictions)
		coalesced += float64(f(a).Coalesced - f(b).Coalesced)
	}
	v["lru.builds"], v["lru.evictions"], v["lru.coalesced"] = builds, evictions, coalesced
	var admitted, shed float64
	for _, g := range [][2]serve.GateStats{
		{a.Admission.Sweeps, b.Admission.Sweeps},
		{a.Admission.WhatIfs, b.Admission.WhatIfs},
		{a.Admission.Disaggregates, b.Admission.Disaggregates},
		{a.Admission.Streams, b.Admission.Streams},
	} {
		admitted += float64(g[0].Admitted - g[1].Admitted)
		shed += float64(g[0].Shed - g[1].Shed)
	}
	v["admit.admitted"], v["admit.shed"] = admitted, shed
	var lag sample
	lag.vs = append(append(lag.vs, so.low.lag.vs...), so.high.lag.vs...)
	v["loadgen.lag_ms.p99"] = lag.pct(99)
	v["loadgen.backlog_max"] = float64(max(so.low.backlogMax, so.high.backlogMax))

	// Go runtime over the named workload's traced segment.
	ops := float64(max(1, named.jobs.n()))
	v["go.alloc_bytes_per_op"] = float64(named.gc.allocBytes) / ops
	v["go.gc_cycles"] = float64(named.gc.cycles)
	v["go.gc_pause_ms"] = float64(named.gc.pause) / float64(ms)
	v["trace.overhead_ratio"] = overhead
	return v
}
