package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/floorplan"
	"ecochip/internal/kernel"
	"ecochip/internal/sensitivity"
	"ecochip/internal/shard"
	"ecochip/internal/shard/netx"
	"ecochip/internal/tech"
	"ecochip/internal/uncertainty"
)

// DSE workload parameters. Sweeps span the paper's DSE sizes; the
// analysis steps around them run at fixed sizes.
const (
	dseMinPoints = 2000
	dseMaxPoints = 262144
	tornadoRel   = 0.25
	mcSamples    = 2000
	mcSeed       = 2024
	warmJobs     = 30 // smallest designs run once during set-up
	// See verifyDSE.
	refDesigns  = 12
	refSweepMax = 10000
	replicas    = 2
)

var frontObjectives = []explore.Metric{explore.ByEmbodied, explore.ByCost}

var frontShardObjectives = []shard.Objective{shard.ObjEmbodied, shard.ObjCost}

// dseEnv is the set-up state of a DSE workload: the design set and, for
// dse-tcp, the replica processes with one connection each.
type dseEnv struct {
	tcp     bool
	db      *tech.DB
	designs []*Design
	kids    []*child
	reg     *netx.Registry
	clients []*netx.Client
}

func dseDesigns(seed int64, db *tech.DB) []*Design {
	rng := rand.New(rand.NewSource(seed))
	return gridDesigns(rng, db, sweepGrid(dseMinPoints, dseMaxPoints))
}

// setupDSE generates the designs, starts and dials the replicas (tcp)
// and warms up on the smallest designs.
func setupDSE(ctx context.Context, o *options, tcp bool) (*dseEnv, error) {
	env := &dseEnv{tcp: tcp, db: tech.Default()}
	env.designs = dseDesigns(o.seed, env.db)
	if tcp {
		env.reg = netx.NewRegistry()
		for i := 0; i < replicas; i++ {
			k, err := startChild(o.binDir, "ecoreplica", "-listen", "127.0.0.1:0")
			if err != nil {
				env.close()
				return nil, err
			}
			env.kids = append(env.kids, k)
			env.clients = append(env.clients, netx.DialTransport(k.addr, env.reg, netx.Options{}))
		}
	}
	for _, d := range smallest(env.designs, warmJobs) {
		if _, err := env.job(ctx, d, nil, 0); err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

func (env *dseEnv) close() {
	for _, c := range env.clients {
		c.Close()
	}
	for _, k := range env.kids {
		k.stop()
	}
}

// resetRSS restarts the peak-RSS count of this process and the replicas.
func (env *dseEnv) resetRSS() {
	resetPeakRSS(0)
	for _, k := range env.kids {
		k.resetPeakRSS()
	}
}

// rssMB is the summed peak RSS of this process and the replicas since
// the last resetRSS.
func (env *dseEnv) rssMB() float64 {
	mb := peakRSSMB(0)
	for _, k := range env.kids {
		mb += k.peakRSSMB()
	}
	return mb
}

// wire sums the replica connections' counters.
func (env *dseEnv) wire() shard.TransportCounters {
	var t shard.TransportCounters
	for _, c := range env.clients {
		w := c.TransportCounters()
		t.Dials += w.Dials
		t.Reconnects += w.Reconnects
		t.FramesIn += w.FramesIn
		t.FramesOut += w.FramesOut
		t.BytesIn += w.BytesIn
		t.BytesOut += w.BytesOut
	}
	return t
}

// smallest returns the n designs with the smallest sweeps.
func smallest(ds []*Design, n int) []*Design {
	s := append([]*Design(nil), ds...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Points() < s[j].Points() })
	return s[:min(n, len(s))]
}

// jobOut is one DSE job's outputs and the work counters the traced run
// reads.
type jobOut struct {
	points  []explore.Point
	front   []explore.Point
	tornado []sensitivity.Result
	mc      uncertainty.Distribution
	disagg  *explore.Plan
	plan    explore.SweepStats
	shard   shard.Stats
	npts    int
}

// job runs one design's analysis session. dse-local: Compile, the
// materialised sweep, the embodied×cost front, tornado, Monte Carlo and
// disaggregation, all in-process. dse-tcp: the materialised sweep and
// the front through a shard coordinator over the replica connections.
func (env *dseEnv) job(ctx context.Context, d *Design, tr *tracer, id int64) (*jobOut, error) {
	root := tr.begin("job", 0, id)
	defer tr.end(root)
	cp := cost.DefaultParams()
	out := &jobOut{}

	var key string
	if env.tcp {
		s := tr.begin("netx.Registry.AddSweep", root, id)
		k, err := env.reg.AddSweep(d.Sys, env.db, d.Nodes, cp)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		key = k
	}
	s := tr.begin("explore.Compile", root, id)
	plan, err := explore.Compile(d.Sys, env.db, d.Nodes, cp)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if env.tcp {
		ts := make([]shard.Transport, len(env.clients))
		for i, c := range env.clients {
			ts[i] = c
		}
		co := shard.NewCoordinator(plan, key, ts, shard.Config{})
		s = tr.begin("shard.Coordinator.Sweep", root, id)
		out.points, err = co.Sweep(ctx)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("shard.Coordinator.ParetoFront", root, id)
		out.front, _, err = co.ParetoFront(ctx, frontShardObjectives)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		out.shard = co.Stats()
		out.npts = len(out.points)
		return out, nil
	}

	s = tr.begin("explore.CompiledPlan.RunCtx", root, id)
	out.points, err = plan.RunCtx(ctx)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("explore.CompiledPlan.ParetoFrontCtx", root, id)
	out.front, _, err = plan.ParetoFrontCtx(ctx, frontObjectives)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	out.plan = plan.Stats()
	s = tr.begin("sensitivity.TornadoCtx", root, id)
	out.tornado, err = sensitivity.TornadoCtx(ctx, d.Sys, env.db, tornadoRel)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("uncertainty.RunCtx", root, id)
	out.mc, err = uncertainty.RunCtx(ctx, d.Sys, env.db, uncertainty.DefaultSpread(), mcSamples, mcSeed)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("explore.Disaggregate", root, id)
	ds, err := explore.CompileDisaggregate(d.Sys, env.db)
	if err == nil {
		out.disagg, err = ds.Run(ctx)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	out.npts = len(out.points)
	return out, nil
}

// outDigest digests each output of a job separately, so each can be
// checked against its own oracle.
type outDigest struct{ points, front, tornado, mc, disagg uint64 }

func (o *jobOut) digests() outDigest {
	dg := outDigest{points: newDigest().points(o.points).sum, front: newDigest().points(o.front).sum}
	if o.disagg != nil {
		dg.tornado = newDigest().tornado(o.tornado).sum
		dg.mc = newDigest().dist(o.mc).sum
		dg.disagg = newDigest().plan(o.disagg).sum
	}
	return dg
}

// dseTotals accumulates the layer counters of a segment's jobs.
type dseTotals struct {
	points     uint64
	planPoints uint64 // points the compiled plans walked (sweep and front)
	graySteps  uint64
	tableBytes float64
	plans      int
	fp         floorplan.TreeStats
	memo       kernel.PkgMemoStats
	shard      shard.Stats
	sweeps     int
	// wire is the replica connections' traffic over the segment; its
	// Dials and Reconnects count since set-up.
	wire shard.TransportCounters
}

func (t *dseTotals) add(o *jobOut) {
	t.points += uint64(o.npts)
	if o.plan.Points > 0 {
		t.planPoints += o.plan.Points
		t.graySteps += o.plan.GraySteps
		t.tableBytes += float64(o.plan.TableSoABytes)
		t.plans++
		t.fp.Add(o.plan.Floorplan)
		t.memo.Add(o.plan.PkgMemo)
	}
	s := o.shard
	t.shard.LeasesGranted += s.LeasesGranted
	t.shard.BlocksCompleted += s.BlocksCompleted
	t.shard.BlocksDeduped += s.BlocksDeduped
	t.shard.BlocksRequeued += s.BlocksRequeued
	t.shard.BlocksLocal += s.BlocksLocal
	t.shard.HedgesFired += s.HedgesFired
	t.shard.ReplicaFailures += s.ReplicaFailures
	if s.LeasesGranted+s.BlocksLocal > 0 {
		t.sweeps += 2 // one Sweep and one ParetoFront per job
	}
}

// runDSE is the closed loop of one client: it runs whole rounds over the
// design set until the jobs' summed time reaches seconds, and at least
// minRounds rounds. Outside
// each job's timed interval its outputs are checked against the
// design's first round, whose front was checked against the front of
// its materialised points;
// verifyDSE then checks the first round against the oracles. Peak RSS is
// taken per round and throughput over each design's median job time,
// so a burst of noise on the machine moves one round or job, not the
// run's figure. Each job's
func runDSE(ctx context.Context, env *dseEnv, seconds float64, minRounds int, tr *tracer) (*segment, error) {
	seg := newSegment()
	var tot dseTotals
	wire0 := env.wire()
	ms := memStats()
	var busy time.Duration
	var raw sample // ms per job as timed
	times := map[*Design][]float64{}
	start := time.Now()
	for round := 0; round < minRounds || busy.Seconds() < seconds; round++ {
		if time.Since(start).Seconds() > 4*seconds+60 {
			return nil, fmt.Errorf("%d rounds did not finish within %.0fs", round, 4*seconds+60)
		}
		env.resetRSS()
		for _, d := range env.designs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			id := int64(seg.attempted + 1)
			seg.attempted++
			t0 := time.Now()
			out, err := env.job(ctx, d, tr, id)
			el := time.Since(t0)
			busy += el
			if err != nil {
				seg.fail(fmt.Sprintf("%s: %v", d.Sys.Name, err))
				continue
			}
			raw.addDur(el, time.Millisecond)
			seg.perDesign[d]++
			times[d] = append(times[d], el.Seconds())
			tot.add(out)
			dg := out.digests()
			switch want, ok := seg.digests[d]; {
			case ok && want != dg:
				seg.fail(fmt.Sprintf("%s: round %d output differs from round 0", d.Sys.Name, round))
			case ok:
			case newDigest().points(explore.ParetoFront(out.points, frontObjectives...)).sum != dg.front:
				seg.fail(fmt.Sprintf("%s: front differs from the front of the materialised points", d.Sys.Name))
			default:
				seg.digests[d] = dg
			}
		}
		seg.rss.add(env.rssMB())
	}
	// Each job counts at its design's median time over the rounds: a
	// burst of noise on the host slows a few jobs, not the median of a
	// design's rounds. Throughput and the job-time percentiles both
	// read these.
	var pts, secs float64
	for d, ts := range times {
		m := median(ts)
		pts += float64(d.Points())
		secs += m
		for range ts {
			seg.jobs.add(m * 1000)
		}
	}
	seg.info["raw_job_ms.p50"], seg.info["raw_job_ms.p90"] = raw.pct(50), raw.pct(90)
	seg.pointsPerS.add(pts / secs)
	seg.jobsPerS.add(float64(len(times)) / secs)
	seg.gc = memStats().since(ms)
	w := env.wire()
	tot.wire = shard.TransportCounters{
		Dials: w.Dials, Reconnects: w.Reconnects,
		FramesIn: w.FramesIn - wire0.FramesIn, FramesOut: w.FramesOut - wire0.FramesOut,
		BytesIn: w.BytesIn - wire0.BytesIn, BytesOut: w.BytesOut - wire0.BytesOut,
	}
	seg.dse = &tot
	return seg, nil
}

// verifyDSE checks each design's outputs bit for bit outside the timed
// window. dse-local: tornado and disaggregation against their
// reference oracles; for the first refDesigns designs in the seeded
// order also the Monte Carlo against uncertainty.RunReference and, when
// the sweep has at most refSweepMax points, the sweep against
// NodeSweepReference. dse-tcp: every sweep against the local plan (the
// fronts were checked against the sweeps in the loop). A design that
// fails fails every job that ran it.
func verifyDSE(ctx context.Context, env *dseEnv, seg *segment) {
	sweeps, mcs := 0, 0
	for i, d := range env.designs {
		got, ok := seg.digests[d]
		if !ok {
			continue
		}
		ref := i < refDesigns
		if ref && !env.tcp {
			mcs++
			if d.Points() <= refSweepMax {
				sweeps++
			}
		}
		if err := verifyDesign(ctx, env, d, got, ref); err != nil {
			seg.failDesign(d, err)
		}
	}
	seg.info["verified_designs"] = len(seg.digests)
	seg.info["verified_sweeps_vs_NodeSweepReference"] = sweeps
	seg.info["verified_mc_vs_RunReference"] = mcs
}

func verifyDesign(ctx context.Context, env *dseEnv, d *Design, got outDigest, ref bool) error {
	cp := cost.DefaultParams()
	if env.tcp {
		plan, err := explore.Compile(d.Sys, env.db, d.Nodes, cp)
		if err != nil {
			return err
		}
		pts, err := plan.RunCtx(ctx)
		if err != nil {
			return err
		}
		if newDigest().points(pts).sum != got.points {
			return fmt.Errorf("sharded sweep differs from the local plan")
		}
		return nil
	}
	if ref && d.Points() <= refSweepMax {
		pts, err := explore.NodeSweepReference(ctx, d.Sys, env.db, d.Nodes, cp)
		if err != nil {
			return err
		}
		if newDigest().points(pts).sum != got.points {
			return fmt.Errorf("sweep differs from NodeSweepReference")
		}
	}
	tornado, err := sensitivity.TornadoReference(ctx, d.Sys, env.db, tornadoRel)
	if err != nil {
		return err
	}
	if newDigest().tornado(tornado).sum != got.tornado {
		return fmt.Errorf("tornado differs from TornadoReference")
	}
	if ref {
		mc, err := uncertainty.RunReference(ctx, d.Sys, env.db, uncertainty.DefaultSpread(), mcSamples, mcSeed)
		if err != nil {
			return err
		}
		if newDigest().dist(mc).sum != got.mc {
			return fmt.Errorf("Monte Carlo differs from RunReference")
		}
	}
	plan, err := explore.DisaggregateReference(ctx, d.Sys, env.db)
	if err != nil {
		return err
	}
	if newDigest().plan(plan).sum != got.disagg {
		return fmt.Errorf("disaggregation differs from DisaggregateReference")
	}
	return nil
}
