package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecochip/internal/cost"
	"ecochip/internal/explore"
	"ecochip/internal/tech"
	"ecochip/internal/testcases"
)

// bigTestSweep compiles a sweep with at least minCombos points (random
// systems over the full candidate node set — up to 7^chiplets combos),
// so lease-count-sensitive tests (breaker cycles, hedge races) get
// enough grants to be deterministic.
func bigTestSweep(t *testing.T, rng *rand.Rand, minCombos int) (*explore.CompiledPlan, *Catalog, string) {
	t.Helper()
	db := tech.Default()
	cp := cost.DefaultParams()
	for {
		sys := testcases.Random(rng, db)
		cat := NewCatalog()
		key, err := cat.RegisterSweep(sys, db, testcases.MaskNodes, cp)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := cat.Plan(key)
		if errors.Is(err, explore.ErrNoFastPath) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if plan.Combos() >= minCombos {
			return plan, cat, key
		}
	}
}

// A straggling replica must be hedged, not waited out: the healthy
// replicas warm the latency EWMA, the straggler's lease ages past the
// adaptive threshold, its blocks are speculatively re-leased, and the
// fast recomputation wins — all well before the lease deadline, with
// the output bit-identical.
func TestChaosStragglerHedges(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	plan, cat, key := bigTestSweep(t, rng, 60)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.BlockSize = 4
	cfg.LeaseBlocks = 1
	cfg.LeaseTimeout = 30 * time.Second // expiry must never be the rescue path
	cfg.HedgeMin = 5 * time.Millisecond
	transports := []Transport{
		NewReplica(cat),
		NewReplica(cat),
		Fault(NewReplica(cat), FaultSpec{Seed: 1, Slow: 10 * time.Second}),
	}
	co := NewCoordinator(plan, key, transports, cfg)
	start := time.Now()
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "hedged sweep")
	st := co.Stats()
	if st.HedgesFired == 0 || st.HedgesWon == 0 {
		t.Errorf("stats = %+v, want fired and won hedges", st)
	}
	if st.HedgesCancelled == 0 {
		t.Errorf("stats = %+v, want the losing straggler lease cancelled early", st)
	}
	if st.LeasesExpired != 0 {
		t.Errorf("stats = %+v, want rescue via hedging, not expiry", st)
	}
	// The straggler stalls 10s per block; finishing fast proves the
	// hedge (not the straggler, not expiry) completed its span.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("sweep took %v with hedging armed", elapsed)
	}
}

// A flapping replica must drive its breaker through the full cycle:
// consecutive failures trip it, the first probe lands in the outage and
// re-quarantines, a later probe lands in the up phase and closes it —
// deterministically, because after the trip the replica's only Execute
// calls are probes.
func TestChaosFlapBreakerCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	plan, cat, key := bigTestSweep(t, rng, 120)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.BlockSize = 2
	cfg.LeaseBlocks = 1
	cfg.DisableHedging = true
	cfg.Health.TripAfter = 3
	cfg.Health.MinSamples = 1000 // isolate the consecutive-failure signal
	cfg.Health.ProbeAfter = 2 * time.Millisecond
	cfg.Health.ProbeAfterMax = 4 * time.Millisecond
	cfg.Health.MaxProbes = 100 // probe through the outage, never retire
	flappy := Fault(NewReplica(cat), FaultSpec{Seed: 2, FlapEvery: 4})
	steady := Fault(NewReplica(cat), FaultSpec{Seed: 3, Delay: 3 * time.Millisecond})
	co := NewCoordinator(plan, key, []Transport{flappy, steady}, cfg)
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "flap sweep")
	st := co.Stats()
	if st.BreakerTrips == 0 || st.BreakerProbes == 0 || st.BreakerCloses == 0 {
		t.Errorf("stats = %+v, want a full open -> half-open -> close breaker cycle", st)
	}
	if st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want no fallback (the flapping replica recovers)", st)
	}
}

// countTransport counts Execute calls.
type countTransport struct {
	inner Transport
	n     atomic.Int64
}

func (c *countTransport) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	c.n.Add(1)
	return c.inner.Execute(ctx, lease, emit)
}

// RemoveTransport before a run excludes the replica entirely; the
// membership calls report presence truthfully.
func TestRemoveTransportExcludesReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	plan, cat, key := testSweep(t, rng)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	counted := &countTransport{inner: NewReplica(cat)}
	co := NewCoordinator(plan, key, []Transport{NewReplica(cat), counted}, fastCfg())
	if !co.RemoveTransport(counted) {
		t.Fatal("RemoveTransport(present) = false")
	}
	if co.RemoveTransport(counted) {
		t.Fatal("RemoveTransport(absent) = true")
	}
	if n := len(co.Transports()); n != 1 {
		t.Fatalf("%d transports after removal, want 1", n)
	}
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "post-removal sweep")
	if n := counted.n.Load(); n != 0 {
		t.Errorf("removed transport executed %d leases, want 0", n)
	}
}

// AddTransport mid-run joins the live run: a sweep stuck behind a
// pathologically slow replica (fallback disabled, expiry out of reach)
// completes promptly once a healthy replica is added, because the
// pending blocks drain through the newcomer and the straggler's own
// span is hedged away from it.
func TestAddTransportJoinsLiveRun(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	plan, cat, key := bigTestSweep(t, rng, 40)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.BlockSize = 4
	cfg.LeaseBlocks = 1
	cfg.LeaseTimeout = 30 * time.Second
	cfg.HedgeMin = 5 * time.Millisecond
	cfg.DisableFallback = true
	stuck := Fault(NewReplica(cat), FaultSpec{Seed: 4, Slow: 10 * time.Second})
	co := NewCoordinator(plan, key, []Transport{stuck}, cfg)

	done := make(chan struct{})
	var got []explore.Point
	var sweepErr error
	go func() {
		defer close(done)
		got, sweepErr = co.Sweep(context.Background())
	}()
	time.Sleep(30 * time.Millisecond)
	co.AddTransport(NewReplica(cat))
	select {
	case <-done:
	case <-time.After(8 * time.Second):
		t.Fatal("sweep did not complete after AddTransport (still stuck behind the straggler)")
	}
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	assertSamePoints(t, want, got, "mid-run-join sweep")
	if n := len(co.Transports()); n != 2 {
		t.Errorf("%d transports after AddTransport, want 2", n)
	}
}

// drainingTransport reports a graceful drain. consulted, when set, is
// closed the first time the coordinator asks whether it is draining.
type drainingTransport struct {
	inner     Transport
	draining  atomic.Bool
	execs     atomic.Int64
	consulted chan struct{}
	once      sync.Once
}

func (d *drainingTransport) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	d.execs.Add(1)
	return d.inner.Execute(ctx, lease, emit)
}

func (d *drainingTransport) Draining() bool {
	if d.consulted != nil {
		d.once.Do(func() { close(d.consulted) })
	}
	return d.draining.Load()
}

// gatedTransport holds every Execute until open is closed.
type gatedTransport struct {
	inner Transport
	open  <-chan struct{}
}

func (g *gatedTransport) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	select {
	case <-g.open:
	case <-ctx.Done():
		return ctx.Err()
	}
	return g.inner.Execute(ctx, lease, emit)
}

// A draining replica gets no leases: the coordinator skips it (counted)
// and the healthy replica carries the sweep. The coverage holds by
// construction, not by scheduling: the plan spans more blocks than one
// lease covers, the drainer is listed first, and the healthy replica
// executes nothing until the coordinator has consulted the drainer, so
// the sweep cannot finish before the drainer's lease loop reaches its
// drain check.
func TestDrainingTransportSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cfg := fastCfg()
	plan, cat, key := bigTestSweep(t, rng, cfg.BlockSize*cfg.LeaseBlocks+1)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	drainer := &drainingTransport{inner: NewReplica(cat), consulted: make(chan struct{})}
	drainer.draining.Store(true)
	healthy := &gatedTransport{inner: NewReplica(cat), open: drainer.consulted}
	co := NewCoordinator(plan, key, []Transport{drainer, healthy}, cfg)
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "draining sweep")
	st := co.Stats()
	if st.DrainSkips == 0 {
		t.Errorf("stats = %+v, want drain skips", st)
	}
	if n := drainer.execs.Load(); n != 0 {
		t.Errorf("draining replica executed %d leases, want 0", n)
	}
	if st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want the healthy replica to finish without fallback", st)
	}
}

// flakyThenHealthy fails its first failN Execute calls with a transient
// error, then behaves.
type flakyThenHealthy struct {
	inner Transport
	failN int64
	execs atomic.Int64
}

func (f *flakyThenHealthy) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	if n := f.execs.Add(1); n <= f.failN {
		return fmt.Errorf("flaky: transient failure %d", n)
	}
	return f.inner.Execute(ctx, lease, emit)
}

// A replica retired in one run (probe budget spent) must rejoin the
// next run through a fresh probe — quarantine is per run, not forever.
func TestQuarantinedReplicaRejoinsNextRun(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	plan, cat, key := bigTestSweep(t, rng, 60)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.BlockSize = 4
	cfg.LeaseBlocks = 1
	cfg.Health.TripAfter = 2
	cfg.Health.ProbeAfter = time.Millisecond
	cfg.Health.ProbeAfterMax = 2 * time.Millisecond
	cfg.Health.MaxProbes = 1
	flaky := &flakyThenHealthy{inner: NewReplica(cat), failN: 50}
	// The steady replica is slowed so run 1 outlasts the flaky one's
	// trip -> failed probe -> exhaust -> retire arc.
	steady := Fault(NewReplica(cat), FaultSpec{Seed: 5, Delay: 2 * time.Millisecond})
	co := NewCoordinator(plan, key, []Transport{flaky, steady}, cfg)
	if _, err := co.Sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := co.Stats()
	if st.ReplicasLost != 1 {
		t.Fatalf("run 1 stats = %+v, want the flaky replica retired", st)
	}
	execsAfterRun1 := flaky.execs.Load()

	// Run 2: the replica has healed (failN exhausted by run 1's budget is
	// not guaranteed, so force it) and must be probed back in.
	flaky.execs.Store(flaky.failN) // next Execute succeeds
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, want, got, "rejoin sweep")
	if n := flaky.execs.Load(); n <= execsAfterRun1 {
		t.Errorf("healed replica executed no leases in run 2 (execs %d -> %d)", execsAfterRun1, n)
	}
	if c := co.Stats(); c.BreakerCloses == 0 {
		t.Errorf("stats = %+v, want the healed replica's breaker closed by a probe", c)
	}
}
