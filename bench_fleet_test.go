package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkFleetSecond runs a small fleet campaign end to end — four
// jittered dumbbell worlds merged through the turnstile aggregator — and
// reports the aggregate simulated-event throughput that headlines
// BENCH_5.json. It runs on one shard so the measurement is the engine,
// not the host's core count. Its allocs/op is near-exact, not bit-exact:
// every iteration reuses the warm arena the warm-up run left on exp's
// arena free list, but the runs still grow maps (out-of-order sets,
// routing tables of rebuilt worlds) whose overflow-bucket counts depend
// on per-map hash seeds (±~0.2% in practice), so the bench-gate stamps
// it with the same 0.5% allocs tolerance as the other world-scale
// benches. The merge path
// itself is gated strictly by BenchmarkFleetMerge below.
func BenchmarkFleetSecond(b *testing.B) {
	b.ReportAllocs()
	cfg := core.FleetConfig{
		Scenarios: []string{"dumbbell"},
		Worlds:    4,
		Seed:      7,
		Duration:  3 * sim.Second,
		Warmup:    1 * sim.Second,
		RateSpan:  0.2,
		RTTSpan:   0.3,
		Shards:    1,
	}
	// Warm the process-wide state (registry, pool internals) outside the
	// measurement.
	if _, err := core.RunFleet(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Start every iteration from a collected heap. The warm arena is
		// on exp's free list, not in a sync.Pool, so collection cannot
		// discard it: every iteration reuses the same warm arena.
		runtime.GC()
		runtime.GC()
		b.StartTimer()
		rep, err := core.RunFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Worlds != cfg.Worlds {
			b.Fatalf("merged %d of %d worlds", rep.Worlds, cfg.Worlds)
		}
		b.ReportMetric(float64(rep.Events), "events")
		b.ReportMetric(rep.EventsPerSec, "events_per_sec")
	}
}

// BenchmarkFleetMerge measures the cross-world merge path alone: one
// Aggregate.Absorb per op — histogram, Welford-moment, dispersion-window
// and reservoir merges over a finished per-world analyzer. This is the
// work the fleet turnstile serializes, so it bounds fleet scalability,
// and it must stay allocation-free in steady state (the aggregate's
// reservoir is pre-filled to its bound below, after which replacement
// draws happen in place). It carries the strict zero-tolerance allocs/op
// stamp: any allocation creeping into the merge layer fails CI outright.
func BenchmarkFleetMerge(b *testing.B) {
	b.ReportAllocs()
	cfg := analysis.Config{KSReservoir: 1024}
	world, err := analysis.NewStreaming(100*sim.Millisecond, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// One finished world: a bursty synthetic loss stream, 2k events.
	at := sim.Time(0)
	for burst := 0; burst < 500; burst++ {
		at = at.Add(sim.Duration(burst%7+1) * 40 * sim.Millisecond)
		for k := 0; k < 4; k++ {
			at = at.Add(300 * sim.Microsecond)
			world.Observe(trace.LossEvent{At: at, Flow: k, Seq: int64(burst*4 + k)})
		}
	}
	agg := analysis.NewAggregate(cfg)
	// Fill the merged reservoir past its bound so the timed loop is the
	// steady state: in-place replacement draws, no growth.
	for agg.KSExact() {
		if err := agg.Absorb(world); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.Absorb(world); err != nil {
			b.Fatal(err)
		}
	}
	if agg.N() == 0 {
		b.Fatal("aggregate absorbed nothing")
	}
}
