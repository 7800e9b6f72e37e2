package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Span names. Spans are recorded only in the benchmark's own code, around
// its calls into the simulator's layers.
const (
	spanTimed  = "timed"               // the workload's timed section
	spanFig2   = "core.RunFigure2"     // one Figure 2 world
	spanWorld  = "topo.Scenario.RunIn" // one fleet or transfer world
	spanMerge  = "exp.merge"           // one world's merge into the result
	spanProbes = "probes"              // the probes after the timed section
)

// span is one traced interval. Start and End are nanoseconds since the
// tracer was made; Parent is -1 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	World  int    `json:"world"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. Fleet workers record from several
// goroutines, hence the lock. A nil tracer records nothing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name, label string, parent, world int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Label: label, World: world, Start: now})
	return id
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return t.spans[id].dur()
}

// write stores the spans as JSON in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// metric is one named measurement. Exact metrics are counts that must
// repeat bit for bit on every run of the same seed.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Exact bool    `json:"exact,omitempty"`
}

// median and quantile interpolate linearly between order statistics;
// both return 0 for an empty sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics of one traced execution from
// its outcome, its spans, the Go runtime counters read around the timed
// section and the probes.
func layerMetrics(o outcome, spans []span, ms0, ms1 *runtime.MemStats, pr probeResult) []metric {
	var worldNs, mergeNs, mergeWait float64
	var worldMs, mergeUs []float64
	perScenario := map[string][]float64{}
	runEnd := map[int]int64{}
	for _, s := range spans {
		switch s.Name {
		case spanWorld, spanFig2:
			worldNs += s.dur()
			if s.Name == spanWorld {
				worldMs = append(worldMs, s.dur()/1e6)
				perScenario[s.Label] = append(perScenario[s.Label], s.dur()/1e6)
				runEnd[s.World] = s.End
			}
		case spanMerge:
			mergeNs += s.dur()
			mergeUs = append(mergeUs, s.dur()/1e3)
		}
	}
	for _, s := range spans {
		if end, ok := runEnd[s.World]; ok && s.Name == spanMerge {
			mergeWait += float64(s.Start - end)
		}
	}
	ms := []metric{
		{Name: "sim.events", Unit: "count", Value: float64(o.events), Exact: true},
		{Name: "sim.ns_per_event", Unit: "ns", Value: ratio(worldNs, float64(o.events))},
		{Name: "netsim.forwarded", Unit: "count", Value: float64(o.forwarded), Exact: true},
		{Name: "netsim.drops", Unit: "count", Value: float64(o.drops), Exact: true},
		{Name: "netsim.events_per_pkt", Unit: "count", Value: ratio(float64(o.events), float64(o.forwarded)), Exact: true},
		{Name: "netsim.ns_per_pkt", Unit: "ns", Value: ratio(worldNs, float64(o.forwarded))},
		{Name: "netsim.packet_bytes", Unit: "bytes", Value: float64(unsafe.Sizeof(netsim.Packet{})), Exact: true},
		{Name: "topo.build_us", Unit: "us", Value: pr.buildUs},
		{Name: "topo.reset_us", Unit: "us", Value: pr.resetUs},
		{Name: "scenarios.world_ms_p50", Unit: "ms", Value: quantile(worldMs, 0.50)},
		{Name: "scenarios.world_ms_p95", Unit: "ms", Value: quantile(worldMs, 0.95)},
	}
	for _, name := range topo.Names() {
		ms = append(ms, metric{Name: "scenarios." + name + ".world_ms_p50", Unit: "ms", Value: median(perScenario[name])})
	}
	ms = append(ms,
		metric{Name: "analysis.batch_ns_per_drop", Unit: "ns", Value: pr.batchNsPerDrop},
		metric{Name: "analysis.stream_ns_per_drop", Unit: "ns", Value: pr.streamNsPerDrop},
		metric{Name: "exp.worlds", Unit: "count", Value: float64(len(worldMs)), Exact: true},
		metric{Name: "exp.merge_us_p50", Unit: "us", Value: quantile(mergeUs, 0.50)},
		metric{Name: "exp.merge_us_p95", Unit: "us", Value: quantile(mergeUs, 0.95)},
		metric{Name: "exp.merge_wait_s", Unit: "s", Value: mergeWait / 1e9},
		metric{Name: "exp.merge_share", Unit: "ratio", Value: ratio(mergeNs, worldNs+mergeNs)},
		metric{Name: "rft.transfers", Unit: "count", Value: float64(o.transfers), Exact: true},
		metric{Name: "rft.retrans_ratio", Unit: "ratio", Value: o.retrans},
		metric{Name: "go.alloc_mb", Unit: "MiB", Value: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)},
		metric{Name: "go.mallocs", Unit: "count", Value: float64(ms1.Mallocs - ms0.Mallocs)},
		metric{Name: "go.gc_cycles", Unit: "count", Value: float64(ms1.NumGC - ms0.NumGC)},
		metric{Name: "go.gc_pause_ms", Unit: "ms", Value: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6},
	)
	return ms
}

// probeResult holds the probes that run after the timed section.
type probeResult struct {
	buildUs, resetUs                float64
	batchNsPerDrop, streamNsPerDrop float64
}

const (
	topoProbeReps     = 15
	analysisProbeReps = 5
)

// topoProbe times topo.NewDumbbellIn for the Figure 2 dumbbell, cold on a
// fresh arena and then again on the same, now warm, arena.
func topoProbe(tr *tracer, root int) probeResult {
	delays := netsim.RandomAccessDelays(sim.NewRand(warmSeed), 16, 2*sim.Millisecond, 200*sim.Millisecond)
	cfg := netsim.DumbbellConfig{
		BottleneckRate: 100_000_000,
		AccessRate:     1_000_000_000,
		AccessDelays:   delays,
		Buffer:         500,
	}
	var cold, warm []float64
	for i := 0; i < topoProbeReps; i++ {
		a := exp.NewArena()
		sched := a.Scheduler()
		sp := tr.begin("topo.NewDumbbellIn", "cold", root, -1)
		topo.NewDumbbellIn(a, sched, cfg)
		cold = append(cold, tr.end(sp)/1e3)

		sched = a.Scheduler()
		sp = tr.begin("topo.NewDumbbellIn", "warm", root, -1)
		topo.NewDumbbellIn(a, sched, cfg)
		warm = append(warm, tr.end(sp)/1e3)
	}
	return probeResult{buildUs: median(cold), resetUs: median(warm)}
}

// analysisProbe replays one retained Figure 2 drop trace through the batch
// path (AnalyzeTrace + SummarizeBursts) and the streaming path
// (Streaming + BurstTracker, then Finalize) and checks that both count
// the same losses and bursts.
func analysisProbe(rec *trace.Recorder, rtt sim.Duration, tr *tracer, root int) (batchNs, streamNs float64, err error) {
	drops := float64(rec.Len())
	var batch, stream []float64
	for i := 0; i < analysisProbeReps; i++ {
		sp := tr.begin("analysis.batch", "", root, -1)
		rb, err := analysis.AnalyzeTrace(rec, rtt, analysis.Config{})
		if err != nil {
			return 0, 0, err
		}
		bb := analysis.SummarizeBursts(rec.Events(), rtt/4)
		batch = append(batch, tr.end(sp)/drops)

		sp = tr.begin("analysis.stream", "", root, -1)
		s, err := analysis.NewStreaming(rtt, analysis.Config{})
		if err != nil {
			return 0, 0, err
		}
		var bt analysis.BurstTracker
		bt.Reset(rtt / 4)
		for _, e := range rec.Events() {
			s.Observe(e)
			bt.Observe(e)
		}
		rs, err := s.Finalize()
		if err != nil {
			return 0, 0, err
		}
		bs := bt.Stats()
		stream = append(stream, tr.end(sp)/drops)

		if rb.N != rs.N || bb != bs {
			return 0, 0, fmt.Errorf("analysis probe: batch (n=%d, %+v) and streaming (n=%d, %+v) disagree",
				rb.N, bb, rs.N, bs)
		}
	}
	return median(batch), median(stream), nil
}
