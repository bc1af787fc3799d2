package shard

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ecochip/internal/explore"
)

// chaosSchedules returns the per-replica fault schedules of one chaos
// trial: one replica guaranteed to crash mid-block, one prone to
// duplicate deliveries, one mixing drops, transient errors and delays,
// one flapping straggler (slow deliveries plus periodic outages, the
// health-fabric levers) — all seeded from the trial RNG so failures
// replay.
func chaosSchedules(rng *rand.Rand) []FaultSpec {
	return []FaultSpec{
		{Seed: rng.Int63(), CrashAfter: 1 + rng.Intn(4), Dup: 0.2},
		{Seed: rng.Int63(), Dup: 0.5, Drop: 0.1},
		{Seed: rng.Int63(), Drop: 0.3, Err: 0.3, Crash: 0.05, Delay: time.Duration(rng.Intn(3)) * time.Millisecond},
		{Seed: rng.Int63(), Slow: 3 * time.Millisecond, SlowProb: 0.3, FlapEvery: 2 + rng.Intn(3), Dup: 0.1},
	}
}

// The chaos parity suite: random systems × random fault schedules
// (crash-mid-block, duplicates, drops, transient errors, delays, lease
// expiry) must leave both the full sweep and the Pareto front
// bit-identical to the single-process plan. Runs under -race in CI.
func TestChaosParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var sawCrash, sawDup, sawRequeue bool
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		plan, cat, key := chaosSweep(t, rng, chaosReplicas)
		want, err := plan.RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		cfg := fastCfg()
		cfg.LeaseBlocks, cfg.BlockSize = chaosLease(rng, plan.Combos(), chaosReplicas)
		cfg.Seed = rng.Int63()
		if trial%2 == 1 {
			// Half the trials also force lease expiry on the delayed replica.
			cfg.LeaseTimeout = 10 * time.Millisecond
		}
		var transports []Transport
		for _, spec := range chaosSchedules(rng) {
			transports = append(transports, Fault(NewReplica(cat), spec))
		}
		if len(transports) != chaosReplicas {
			t.Fatalf("chaosSchedules built %d replicas, chaosReplicas says %d", len(transports), chaosReplicas)
		}

		co := NewCoordinator(plan, key, transports, cfg)
		got, err := co.Sweep(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSamePoints(t, want, got, "chaos sweep")

		// Front mode under an independent schedule of the same trial.
		objectives := []Objective{ObjEmbodied, ObjCost}
		ms, err := ObjectiveMetrics(objectives)
		if err != nil {
			t.Fatal(err)
		}
		wantFront, wantTotal, err := plan.ParetoFrontCtx(context.Background(), ms)
		if err != nil {
			t.Fatal(err)
		}
		var frontTransports []Transport
		for _, spec := range chaosSchedules(rng) {
			frontTransports = append(frontTransports, Fault(NewReplica(cat), spec))
		}
		cof := NewCoordinator(plan, key, frontTransports, cfg)
		gotFront, gotTotal, err := cof.ParetoFront(context.Background(), objectives)
		if err != nil {
			t.Fatalf("trial %d front: %v", trial, err)
		}
		if gotTotal != wantTotal {
			t.Fatalf("trial %d: front total %d, want %d", trial, gotTotal, wantTotal)
		}
		assertSamePoints(t, wantFront, gotFront, "chaos front")

		st := co.Stats()
		sf := cof.Stats()
		sawCrash = sawCrash || st.ReplicasLost > 0 || sf.ReplicasLost > 0
		sawDup = sawDup || st.BlocksDeduped > 0 || sf.BlocksDeduped > 0
		sawRequeue = sawRequeue || st.BlocksRequeued > 0 || sf.BlocksRequeued > 0
	}
	sawCrash = deterministicCrashTrial(t, rng) || sawCrash
	// The suite's guarantees are only meaningful if the schedules
	// actually exercised the recovery paths.
	if !sawCrash {
		t.Error("no trial lost a replica to a crash")
	}
	if !sawDup {
		t.Error("no trial deduplicated a double delivery")
	}
	if !sawRequeue {
		t.Error("no trial re-leased a block")
	}
}

const (
	// chaosReplicas is the replica count of a chaos trial (one per
	// chaosSchedules entry).
	chaosReplicas = 4
	// maxChaosLeaseBlocks bounds a chaos trial's LeaseBlocks draw.
	maxChaosLeaseBlocks = 4
)

// chaosSweep draws test sweeps until one has more points than the
// trial has transports, the least that lets every transport hold a
// one-block lease with a block to spare (see chaosLease).
func chaosSweep(t *testing.T, rng *rand.Rand, transports int) (*explore.CompiledPlan, *Catalog, string) {
	t.Helper()
	for {
		plan, cat, key := testSweep(t, rng)
		if plan.Combos() > transports {
			return plan, cat, key
		}
	}
}

// chaosLease draws a trial's LeaseBlocks and BlockSize from the plan's
// point count such that the plan splits into more blocks than
// transports × LeaseBlocks: all transports together cannot hold every
// block in their first leases. LeaseBlocks is capped at
// (points-1)/transports, so any plan of more than transports points
// admits such a split.
func chaosLease(rng *rand.Rand, points, transports int) (leaseBlocks, blockSize int) {
	leaseBlocks = 1 + rng.Intn(min(maxChaosLeaseBlocks, (points-1)/transports))
	blockSize = 1 + rng.Intn(points/(transports*leaseBlocks+1))
	return leaseBlocks, blockSize
}

// deterministicCrashTrial sweeps over a replica that crashes on its
// first delivered block beside a healthy replica that holds its leases
// until the crash has surfaced. The plan has more blocks than the
// healthy replica can hold, so the crashing replica is leased a block
// whatever the scheduling: the crash, the retirement and the re-lease
// of its block happen on every run. It reports whether the coordinator
// counted the lost replica; the output must stay bit-identical.
func deterministicCrashTrial(t *testing.T, rng *rand.Rand) bool {
	t.Helper()
	plan, cat, key := chaosSweep(t, rng, 2)
	want, err := plan.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.LeaseBlocks, cfg.BlockSize = chaosLease(rng, plan.Combos(), 2)
	crashing := &signalDown{inner: Fault(NewReplica(cat), FaultSpec{Seed: rng.Int63(), CrashAfter: 1}), down: make(chan struct{})}
	held := &holdUntil{inner: NewReplica(cat), ready: crashing.down}
	co := NewCoordinator(plan, key, []Transport{crashing, held}, cfg)
	got, err := co.Sweep(context.Background())
	if err != nil {
		t.Fatalf("deterministic crash trial: %v", err)
	}
	assertSamePoints(t, want, got, "deterministic crash sweep")
	st := co.Stats()
	if st.ReplicasLost != 1 || st.Fallbacks != 0 {
		t.Fatalf("deterministic crash trial stats = %+v, want exactly the crashing replica lost and no fallback", st)
	}
	return st.ReplicasLost > 0
}

// signalDown closes down once its inner transport reports the replica
// down.
type signalDown struct {
	inner Transport
	once  sync.Once
	down  chan struct{}
}

func (s *signalDown) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	err := s.inner.Execute(ctx, lease, emit)
	if errors.Is(err, ErrReplicaDown) {
		s.once.Do(func() { close(s.down) })
	}
	return err
}

// holdUntil holds every lease until ready closes, then executes it.
type holdUntil struct {
	inner Transport
	ready <-chan struct{}
}

func (h *holdUntil) Execute(ctx context.Context, lease Lease, emit func(BlockResult) error) error {
	select {
	case <-h.ready:
	case <-ctx.Done():
		return ctx.Err()
	}
	return h.inner.Execute(ctx, lease, emit)
}
