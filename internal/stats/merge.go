package stats

// Merge counterparts to the streaming accumulators: every statistic the
// fleet layer aggregates across worlds has a merge operation whose result
// is a pure function of the inputs — independent of how the event stream
// was sharded — so a fleet's report is invariant under the shard count.
//
// Exactness contract:
//
//   - Histogram.Merge, DispersionStats.Merge: exact — merging per-shard
//     accumulators yields bit-identical counts to one accumulator fed the
//     concatenated stream.
//   - Moments.Merge: exact up to floating-point associativity (Chan et
//     al.'s parallel Welford combination); the merged moments equal the
//     single-pass moments to ~1e-12 relative error, and the merge itself
//     is deterministic, so equal shards always produce equal bits.
//   - Reservoir.Merge: exact concatenation while the union fits the
//     bound; beyond it, a deterministic weighted subsample (see Merge).

import (
	"fmt"
	"math"
)

// Merge folds another histogram with the same bin layout into h — the
// cross-shard counterpart of Add. Counts, totals and overflow add, so the
// merged histogram is exactly the histogram of the concatenated streams.
// Merging mismatched layouts is a programming error and panics like Add.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if h.BinWidth != o.BinWidth || len(h.counts) != len(o.counts) {
		panic(fmt.Sprintf("stats: histogram merge layout mismatch (%v×%d vs %v×%d)",
			h.BinWidth, len(h.counts), o.BinWidth, len(o.counts)))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.Overflow += o.Overflow
}

// Moments is a mergeable Welford accumulator: the running count, mean and
// sum of squared deviations (M2) of a sample. Observe applies the exact
// update analysis.Streaming historically inlined; Merge combines two
// accumulators with the parallel form (Chan, Golub, LeVeque), so
// per-shard moments collapse into the whole-stream moments without
// revisiting the data. The zero value is an empty sample.
type Moments struct {
	N    int64
	Mean float64
	M2   float64
}

// Reset forgets the sample.
func (m *Moments) Reset() { *m = Moments{} }

// Observe folds in one observation (Welford's numerically stable update).
func (m *Moments) Observe(x float64) {
	m.N++
	d := x - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (x - m.Mean)
}

// Merge folds another accumulator into m. The combination is exact in
// count and deterministic in the floating-point fields: merging the same
// shards always yields the same bits, and the result matches a single
// pass over the concatenated sample up to associativity.
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = o
		return
	}
	n1, n2 := float64(m.N), float64(o.N)
	n := n1 + n2
	d := o.Mean - m.Mean
	m.Mean += d * n2 / n
	m.M2 += o.M2 + d*d*n1*n2/n
	m.N += o.N
}

// Var returns the unbiased sample variance (0 for N < 2).
func (m Moments) Var() float64 {
	if m.N < 2 {
		return 0
	}
	return m.M2 / float64(m.N-1)
}

// Std returns the unbiased sample standard deviation.
func (m Moments) Std() float64 { return math.Sqrt(m.Var()) }

// CoV returns the coefficient of variation Std/Mean (0 when the mean is
// zero).
func (m Moments) CoV() float64 {
	if m.Mean == 0 {
		return 0
	}
	return m.Std() / m.Mean
}

// DispersionStats is the mergeable snapshot of a DispersionCounter: the
// event count, the number of windows spanned (including trailing empties
// up to the last event) and the Σc² over those windows, with the open
// window folded in. Shards that count disjoint spans of a stream merge by
// pooling windows — exact, because window counts and Σc² are plain sums.
//
// The one approximation is at shard boundaries: a window straddling two
// worlds' streams is counted once per world. Fleet shards are whole
// worlds (each world's clock restarts at zero), so in the fleet layer the
// pooled value is exactly "the IoD of the pooled per-world windows".
type DispersionStats struct {
	Events  int64
	Windows int64
	SumSq   float64
}

// Stats snapshots the counter's mergeable state, including the open
// window. The counter itself is unaffected and may keep observing.
func (c *DispersionCounter) Stats() DispersionStats {
	if c.n == 0 || c.window <= 0 {
		return DispersionStats{}
	}
	return DispersionStats{
		Events:  c.n,
		Windows: int64(c.lastT/c.window) + 1,
		SumSq:   c.sumSq + float64(c.curCount)*float64(c.curCount),
	}
}

// Merge pools another snapshot's windows into d.
func (d *DispersionStats) Merge(o DispersionStats) {
	d.Events += o.Events
	d.Windows += o.Windows
	d.SumSq += o.SumSq
}

// Value returns the index of dispersion of the pooled windows — the same
// population-variance convention as DispersionCounter.Value, which is the
// single-shard special case of this computation.
func (d DispersionStats) Value() float64 {
	if d.Events == 0 || d.Windows == 0 {
		return 0
	}
	mean := float64(d.Events) / float64(d.Windows)
	popVar := d.SumSq/float64(d.Windows) - mean*mean
	if popVar < 0 {
		popVar = 0 // floating-point guard; variance is nonnegative
	}
	return popVar / mean
}

// reservoirSeed is the fixed SplitMix64 seed every reservoir starts from:
// sampling must be a pure function of the observation stream so sweeps
// and fleets stay worker-count invariant.
const reservoirSeed = 0x9e3779b97f4a7c15

// Reservoir is a bounded, deterministic uniform sample of a float64
// stream: every observation is retained until the bound, then classic
// reservoir replacement driven by a fixed-seed SplitMix64 stream. It is
// the retention policy behind the streaming KS test, extracted so fleet
// aggregation can merge per-world samples. The zero value is unusable;
// call Reset.
type Reservoir struct {
	bound int
	items []float64
	seen  int64
	rng   uint64
}

// Reset prepares the reservoir for a new stream with the given bound,
// keeping the retained slice's capacity.
func (r *Reservoir) Reset(bound int) {
	if bound <= 0 {
		panic("stats: reservoir needs a positive bound")
	}
	*r = Reservoir{bound: bound, items: r.items[:0], rng: reservoirSeed}
}

// Observe offers one value to the sample.
func (r *Reservoir) Observe(x float64) {
	r.seen++
	if len(r.items) < r.bound {
		r.items = append(r.items, x)
		return
	}
	if j := r.next() % uint64(r.seen); j < uint64(r.bound) {
		r.items[j] = x
	}
}

// next advances the SplitMix64 state.
func (r *Reservoir) next() uint64 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Items exposes the retained sample. The slice is owned by the reservoir
// and valid until the next Observe/Merge/Reset.
func (r *Reservoir) Items() []float64 { return r.items }

// Seen reports how many observations were offered.
func (r *Reservoir) Seen() int64 { return r.seen }

// Bound reports the retention bound.
func (r *Reservoir) Bound() int { return r.bound }

// Exact reports whether the sample still holds every offered observation.
func (r *Reservoir) Exact() bool { return r.seen <= int64(r.bound) }

// Merge folds another reservoir's sample into r. While both sides are
// exact and the union fits r's bound, the merge is exact concatenation —
// the merged reservoir holds every observation either side saw. Beyond
// that, each retained item of o stands in for o.Seen()/len items of o's
// stream and is offered with that weight through r's deterministic
// replacement stream. The result is a deterministic function of the two
// reservoirs (and therefore of the sharded stream), not an unbiased
// uniform sample — the documented approximation of fleet KS statistics
// past the retention bound.
func (r *Reservoir) Merge(o *Reservoir) {
	if o.seen == 0 {
		return
	}
	if r.Exact() && o.Exact() && r.seen+o.seen <= int64(r.bound) {
		r.items = append(r.items, o.items...)
		r.seen += o.seen
		return
	}
	n := int64(len(o.items))
	base, extra := o.seen/n, o.seen%n
	for i, x := range o.items {
		w := base
		if int64(i) < extra {
			w++
		}
		r.seen += w
		if len(r.items) < r.bound {
			r.items = append(r.items, x)
			continue
		}
		if j := r.next() % uint64(r.seen); j < uint64(r.bound) {
			r.items[j] = x
		}
	}
}
