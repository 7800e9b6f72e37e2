// Command hostbench is the repository's host-time benchmark. It runs one
// named workload of fixed work through the simulator's public entry points
// (core, exp, topo), checks the simulated output against a pinned digest,
// and prints host-time metrics: the end-to-end metrics by default, the
// per-layer metrics with --trace 1.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash hostbench/run.sh --workload fig2-paper --seed 1 --seconds 40 --trace 0
//
// The process started that way is the parent. It starts one child process
// per repetition of the workload, one after another (a closed loop), until
// --seconds have passed, and reports medians over the children. Each child
// does package set-up, an untimed warm-up, and then the workload's timed
// section once; see README.md in this directory.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runDeadline kills every child still running this long after the parent
// started, so that a run ends within three minutes.
const runDeadline = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig2-paper, fleet-catalog or rft-transfers")
	seed := fs.Int64("seed", 1, "run seed; with -child, the world seed")
	seconds := fs.Int("seconds", 40, "how long the parent keeps starting repetitions")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics of traced repetitions")
	child := fs.Bool("child", false, "run the workload once in this process (used by the parent)")
	spans := fs.String("spans", "", "child only: write the traced spans to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hostbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	traced := *traceFlag == 1
	if *child {
		res := runChild(w, *seed, traced, fullSize, *spans)
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintf(stderr, "hostbench: %v\n", err)
			return 1
		}
		return 0
	}
	return runParent(w, *seed, time.Duration(*seconds)*time.Second, traced, stdout, stderr)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// childResult is what one child process reports on its standard output.
type childResult struct {
	Digest string `json:"digest"`
	Worlds int    `json:"worlds"`
	Failed int    `json:"failed"`
	// TimedStart is the wall-clock start of the timed section; the parent
	// subtracts the moment it started the process to get setup_s.
	TimedStart int64    `json:"timed_start_unix_ns"`
	WallS      float64  `json:"wall_s"`
	PeakRSSMiB float64  `json:"peak_rss_mib"`
	Layers     []metric `json:"layers,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// runChild warms up, runs the workload's timed section once and, when
// traced, the probes after it.
func runChild(w workload, seed int64, traced bool, sz size, spansPath string) childResult {
	res := childResult{Worlds: w.worlds(sz)}
	if err := warmUp(w); err != nil {
		res.Error = err.Error()
		return res
	}
	var tr *tracer
	var ms0, ms1 runtime.MemStats
	if traced {
		tr = newTracer()
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	res.TimedStart = start.UnixNano()
	root := tr.begin(spanTimed, w.name, -1, -1)
	var o outcome
	if traced {
		o = w.traced(seed, sz, tr, root)
	} else {
		o = w.run(seed, sz)
	}
	tr.end(root)
	res.WallS = time.Since(start).Seconds()
	res.Digest, res.Worlds, res.Failed = o.digest, o.worlds, o.failed
	if traced {
		runtime.ReadMemStats(&ms1)
		pr, err := probes(o, seed, sz, tr)
		if err != nil {
			res.Error = err.Error()
			return res
		}
		res.Layers = layerMetrics(o, tr.spans, &ms0, &ms1, pr)
		if spansPath != "" {
			if err := tr.write(spansPath); err != nil {
				res.Error = err.Error()
				return res
			}
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		res.Error = err.Error()
	}
	res.PeakRSSMiB = rss
	return res
}

// probes runs the topo build/reset probe and the analysis replay probe.
// The analysis probe's input is a Figure 2 drop trace: the timed world's
// own on fig2-paper, elsewhere that of a fresh untimed Figure 2 world
// drawn from this seed as fig2-paper would draw it.
func probes(o outcome, seed int64, sz size, tr *tracer) (probeResult, error) {
	root := tr.begin(spanProbes, "", -1, -1)
	defer tr.end(root)
	pr := topoProbe(tr, root)
	rec, rtt := o.rec, o.meanRTT
	if rec == nil {
		res, err := fig2World(fig2Seed(seed), sz)
		if err != nil {
			return pr, fmt.Errorf("analysis probe input: %w", err)
		}
		rec, rtt = res.Trace, res.MeanRTT
	}
	var err error
	pr.batchNsPerDrop, pr.streamNsPerDrop, err = analysisProbe(rec, rtt, tr, root)
	return pr, err
}

// peakRSSMiB reads the process's resident-memory high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// childRun is one finished child process as the parent saw it.
type childRun struct {
	traced bool
	index  int // position in the run's seed cycle
	res    childResult
	setupS float64
	err    error // the process failed or reported an error
}

// runParent starts children one after another until the time budget is
// spent, then prints the summary. Untraced, child c runs the workload at
// w.seeds(seed)[c mod w.cycle], and at least one whole cycle runs. Traced,
// untraced and traced children alternate on the first of those seeds, so
// that counts repeat exactly.
func runParent(w workload, seed int64, budget time.Duration, traced bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	minRounds := w.cycle
	if traced {
		minRounds = 1
	}
	seeds := w.seeds(seed)
	start := time.Now()
	var runs []childRun
	var longest time.Duration
	for round := 0; round < minRounds || time.Since(start)+longest <= budget; round++ {
		t0 := time.Now()
		if traced {
			spans := filepath.Join(filepath.Dir(exe), "trace", fmt.Sprintf("%s-%d.json", w.name, round))
			runs = append(runs, spawn(ctx, exe, w, seeds, 0, ""), spawn(ctx, exe, w, seeds, 0, spans))
		} else {
			runs = append(runs, spawn(ctx, exe, w, seeds, round%w.cycle, ""))
		}
		longest = max(longest, time.Since(t0))
	}
	for i, r := range runs {
		fmt.Fprintf(stdout, "# child %d traced=%v cycle=%d wall_s=%.4f setup_s=%.4f peak_rss_mb=%.2f worlds=%d failed=%d digest=%s",
			i, r.traced, r.index, r.res.WallS, r.setupS, r.res.PeakRSSMiB, r.res.Worlds, r.res.Failed, r.res.Digest)
		if r.err != nil {
			fmt.Fprintf(stdout, " error=%q", r.err.Error())
		}
		fmt.Fprintln(stdout)
	}
	sum, notes := summarize(w, fullSize, pins.Digests[w.name][strconv.FormatInt(seed, 10)], runs, traced)
	for _, n := range notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	if sum == nil {
		fmt.Fprintln(stderr, "hostbench: no repetition succeeded")
		return 1
	}
	out, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// spawn runs one child process to completion, on seeds[index]. A
// non-empty spans path makes it a traced child that writes its spans
// there.
func spawn(ctx context.Context, exe string, w workload, seeds []int64, index int, spans string) childRun {
	r := childRun{traced: spans != "", index: index}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seeds[index], 10), "-trace", "0"}
	if r.traced {
		args[len(args)-1] = "1"
		args = append(args, "-spans", spans)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	started := time.Now()
	if err := cmd.Run(); err != nil {
		r.err = fmt.Errorf("child: %w", err)
		return r
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &r.res); err != nil {
		r.err = fmt.Errorf("child output: %w", err)
		return r
	}
	if r.res.Error != "" {
		r.err = errors.New(r.res.Error)
	}
	r.setupS = float64(r.res.TimedStart-started.UnixNano()) / 1e9
	return r
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line the benchmark prints last.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summarize checks every child's output and reduces the children to one
// summary: the end-to-end metrics over the untraced children, or with
// traced the per-layer metrics over the traced ones. Worlds that errored
// or were skipped count as failed, and so does every world of a child
// whose digest differs from pinned[index] (or, with no pin for its
// index, from the first child with the same index). It returns nil when
// no child produced a usable result.
func summarize(w workload, sz size, pinned []string, runs []childRun, traced bool) (*summary, []string) {
	var notes []string
	if len(pinned) == 0 {
		notes = append(notes, "no pinned digests for this workload and seed; children checked against each other")
	}
	ref := map[int]string{}
	for i, d := range pinned {
		ref[i] = d
	}
	s := &summary{Correct: true, Metrics: map[string]value{}}
	var good []childRun
	for _, r := range runs {
		worlds := w.worlds(sz)
		s.Attempted += worlds
		want, ok := ref[r.index]
		if !ok && r.err == nil {
			want = r.res.Digest
			ref[r.index] = want
		}
		switch {
		case r.err != nil:
			s.Failed += worlds
			s.Correct = false
		case r.res.Digest != want:
			s.Failed += worlds
			s.Correct = false
			notes = append(notes, fmt.Sprintf("cycle %d: digest %s differs from %s", r.index, r.res.Digest, want))
		default:
			s.Failed += r.res.Failed
			good = append(good, r)
		}
	}
	notes = append(notes, fmt.Sprintf("failed_frac=%v (%d of %d worlds)", ratio(float64(s.Failed), float64(s.Attempted)), s.Failed, s.Attempted))
	var plainWall, plainSetup, plainRSS, tracedWall []float64
	var layers [][]metric
	for _, r := range good {
		if r.traced {
			tracedWall = append(tracedWall, r.res.WallS)
			layers = append(layers, r.res.Layers)
			continue
		}
		plainWall = append(plainWall, r.res.WallS)
		plainSetup = append(plainSetup, r.setupS)
		plainRSS = append(plainRSS, r.res.PeakRSSMiB)
	}
	if len(plainWall) == 0 || traced && len(layers) == 0 {
		return nil, notes
	}
	if !traced {
		s.Metrics["wall_s"] = value{median(plainWall), "s"}
		s.Metrics["setup_s"] = value{median(plainSetup), "s"}
		s.Metrics["peak_rss_mb"] = value{median(plainRSS), "MiB"}
		return s, notes
	}
	for i, m := range layers[0] {
		xs := make([]float64, len(layers))
		for j, l := range layers {
			xs[j] = l[i].Value
			if m.Exact && l[i].Value != m.Value {
				s.Correct = false
				notes = append(notes, fmt.Sprintf("count %s differs between repetitions: %v vs %v", m.Name, m.Value, l[i].Value))
			}
		}
		s.Metrics[m.Name] = value{median(xs), m.Unit}
	}
	s.Metrics["trace.overhead_pct"] = value{100 * (median(tracedWall) - median(plainWall)) / median(plainWall), "%"}
	return s, notes
}

// pins holds the digests of the simulated output that a correct program
// reproduces: per workload and run seed, one digest per position in the
// workload's seed cycle.
//
//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	DefaultSeed int64                          `json:"default_seed"`
	HeldOutSeed int64                          `json:"held_out_seed"`
	Digests     map[string]map[string][]string `json:"digests"`
}

var pins = func() pinFile {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("hostbench: malformed pins.json: " + err.Error())
	}
	return p
}()
