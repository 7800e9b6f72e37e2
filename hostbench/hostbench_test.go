package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strconv"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkPrinted asserts that a summary prints exactly the metrics want
// names, each with the unit want gives it.
func checkPrinted(t *testing.T, label string, got map[string]value, want []benchMetric) {
	t.Helper()
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%s: printed %d metrics %v, BENCHMARK.json lists %d", label, len(got), names, len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !metricName.MatchString(m.Name):
			t.Errorf("%s: metric name %q does not match %s", label, m.Name, metricName)
		case !ok:
			t.Errorf("%s: metric %s not printed", label, m.Name)
		case v.Unit == "" || v.Unit != m.Unit:
			t.Errorf("%s: metric %s printed with unit %q, BENCHMARK.json says %q", label, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestReducedRunsRepeat runs every workload twice at reduced length,
// traced, plus once untraced. The count metrics must repeat exactly, the
// digests must agree, and the summaries must print every metric
// BENCHMARK.json names, with its unit.
func TestReducedRunsRepeat(t *testing.T) {
	bench := readBenchmarkFile(t)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, bench.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			seed := w.seeds(3)[0]
			var runs []childRun
			for _, traced := range []bool{false, true, true} {
				res := runChild(w, seed, traced, reducedSize, "")
				if res.Error != "" || res.Failed != 0 {
					t.Fatalf("traced=%v: error %q, %d of %d worlds failed", traced, res.Error, res.Failed, res.Worlds)
				}
				runs = append(runs, childRun{traced: traced, res: res})
			}
			for _, r := range runs[1:] {
				if r.res.Digest != runs[0].res.Digest {
					t.Errorf("digest %s differs from the untraced %s", r.res.Digest, runs[0].res.Digest)
				}
			}
			a, b := runs[1].res.Layers, runs[2].res.Layers
			exact := 0
			for i, m := range a {
				if m.Exact {
					exact++
					if b[i].Value != m.Value {
						t.Errorf("count %s: %v then %v", m.Name, m.Value, b[i].Value)
					}
				}
			}
			if exact != 7 {
				t.Errorf("%d exact count metrics, want 7", exact)
			}
			for _, traced := range []bool{false, true} {
				sum, notes := summarize(w, reducedSize, nil, runs, traced)
				if sum == nil || !sum.Correct || sum.Failed != 0 {
					t.Fatalf("traced=%v: summary %+v, notes %v", traced, sum, notes)
				}
				want := bench.EndToEnd
				if traced {
					want = bench.PerLayer
				}
				checkPrinted(t, w.name, sum.Metrics, want)
			}
		})
	}
}

// TestSummarizeCountsDigestMismatch checks that a child whose digest
// differs from the others fails all its worlds.
func TestSummarizeCountsDigestMismatch(t *testing.T) {
	w, _ := lookupWorkload("fleet-catalog")
	ok := childResult{Digest: "a", Worlds: 264, WallS: 1, PeakRSSMiB: 1}
	bad := ok
	bad.Digest = "b"
	runs := []childRun{{res: ok}, {res: bad}, {res: ok}}
	sum, _ := summarize(w, fullSize, nil, runs, false)
	if sum.Correct || sum.Attempted != 3*264 || sum.Failed != 264 {
		t.Errorf("summary %+v, want incorrect with 264 of 792 worlds failed", sum)
	}
}

// TestPinnedSeeds checks that the default and held-out seeds have
// pinned digests for every workload.
func TestPinnedSeeds(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{pins.DefaultSeed, pins.HeldOutSeed} {
			if got := len(pins.Digests[w.name][strconv.FormatInt(seed, 10)]); got != w.cycle {
				t.Errorf("%s seed %d: %d pinned digests, want one per cycle position (%d)", w.name, seed, got, w.cycle)
			}
		}
	}
}
