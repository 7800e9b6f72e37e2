// Package exp is the deterministic parallel experiment runner. Every
// multi-replication sweep in the repository — figure replications across
// seeds, the PlanetLab path campaign, the Figure 8 latency grid, the
// back-to-back artifacts of cmd/paperexp — fans out through Sweep.
//
// The contract that makes parallelism safe and reproducible:
//
//   - One simulated world is confined to one goroutine. A sim.Scheduler,
//     every *rand.Rand feeding it, and every component attached to it must
//     be created inside the run function and never shared across runs
//     (see the sim package docs).
//   - Run i's seed is sim.SubSeed(Options.Seed, i), a pure function of
//     the base seed and the run index. Results therefore do not depend on
//     the worker count or on completion order: a sweep with 1 worker and
//     a sweep with N workers produce identical Result slices.
//   - Results come back ordered by run index, with per-run errors (and
//     panics, converted to errors) captured rather than aborting the
//     whole sweep.
package exp

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sim"
)

// Options configures a sweep.
type Options struct {
	// Seed is the base seed. Run i receives sim.SubSeed(Seed, i) so each
	// replication draws from an independent, index-stable stream.
	Seed int64
	// Workers bounds the number of concurrent runs. 0 means
	// runtime.GOMAXPROCS(0); 1 recovers fully sequential execution.
	Workers int
}

func (o Options) workers(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run is the per-run input handed to a sweep function.
type Run[C any] struct {
	// Index is the run's position in the config slice.
	Index int
	// Seed is sim.SubSeed(Options.Seed, Index). Run functions that need
	// more than one stream should derive children with further SubSeed
	// calls rather than sharing one *rand.Rand.
	Seed int64
	// Config is the run's experiment configuration.
	Config C
}

// Result is one run's outcome, reported in input order.
type Result[R any] struct {
	Index int
	Seed  int64
	Value R
	Err   error
}

// Sweep executes fn once per config, fanning the runs out across a worker
// pool. It returns one Result per config, in config order, regardless of
// which worker ran what or in which order runs finished. A run that
// returns an error or panics records the failure in its Result slot; the
// other runs proceed.
func Sweep[C, R any](opts Options, configs []C, fn func(Run[C]) (R, error)) []Result[R] {
	return SweepArena(opts, configs, func(r Run[C], _ *Arena) (R, error) {
		return fn(r)
	})
}

// SweepArena is Sweep with per-worker scratch: each worker goroutine owns
// one Arena, created when the worker starts and handed to every run that
// worker executes. Replications that route their scheduler, packet pool
// and analysis scratch through the arena reuse those allocations across
// the whole sweep instead of rebuilding them per run.
//
// The determinism contract is unchanged — every arena accessor resets the
// state it hands out, so a run on a warm arena is bit-identical to a run
// on a cold one and results stay invariant under the worker count. The
// one new rule: values retained in a Result must not point into the
// arena (see Arena).
func SweepArena[C, R any](opts Options, configs []C, fn func(Run[C], *Arena) (R, error)) []Result[R] {
	results := make([]Result[R], len(configs))
	if len(configs) == 0 {
		return results
	}
	nw := opts.workers(len(configs))

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := getArena()
			defer putArena(arena)
			for i := range jobs {
				r := Run[C]{Index: i, Seed: sim.SubSeed(opts.Seed, int64(i)), Config: configs[i]}
				v, err := protect(fn, r, arena)
				results[i] = Result[R]{Index: i, Seed: r.Seed, Value: v, Err: err}
			}
		}()
	}
	for i := range configs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// arenaPool recycles worker arenas across sweeps. A sweep's arenas carry
// warm capacity that is expensive to regrow — event freelists, scheduler
// and queue-store slices, packet populations, cached compiled worlds — and
// every one of those is rewound by its accessor (Scheduler resets, worlds
// Reset via topo.NetworkIn), so a pooled arena is observationally
// identical to a fresh one while skipping the regrowth. Back-to-back
// sweeps (replication campaigns, benchmark iterations, paperexp artifact
// batches) therefore pay world construction once per process, not once
// per sweep. Under memory pressure the pool sheds arenas like any
// sync.Pool.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

func getArena() *Arena  { return arenaPool.Get().(*Arena) }
func putArena(a *Arena) { arenaPool.Put(a) }

// protect runs fn, converting a panic into an error so one bad replication
// cannot take down a whole sweep.
func protect[C, R any](fn func(Run[C], *Arena) (R, error), r Run[C], a *Arena) (v R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: run %d (seed %d) panicked: %v", r.Index, r.Seed, p)
		}
	}()
	return fn(r, a)
}

// Replicate runs fn n times — the "same experiment, n independent seeds"
// special case of Sweep.
func Replicate[R any](opts Options, n int, fn func(index int, seed int64) (R, error)) []Result[R] {
	return Sweep(opts, make([]struct{}, n), func(r Run[struct{}]) (R, error) {
		return fn(r.Index, r.Seed)
	})
}

// ReplicateArena is Replicate with the per-worker Arena of SweepArena.
func ReplicateArena[R any](opts Options, n int, fn func(index int, seed int64, a *Arena) (R, error)) []Result[R] {
	return SweepArena(opts, make([]struct{}, n), func(r Run[struct{}], a *Arena) (R, error) {
		return fn(r.Index, r.Seed, a)
	})
}

// Values extracts the result values, failing on the first captured error.
func Values[R any](results []Result[R]) ([]R, error) {
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	out := make([]R, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out, nil
}

// FirstErr returns the lowest-index captured error, or nil.
func FirstErr[R any](results []Result[R]) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("exp: run %d: %w", r.Index, r.Err)
		}
	}
	return nil
}
