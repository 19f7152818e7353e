package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"lfm/internal/alloc"
	"lfm/internal/monitor"
)

func TestLayerOf(t *testing.T) {
	const sim, wq = "lfm/internal/sim.", "lfm/internal/wq."
	cases := []struct {
		name   string
		frames []string
		want   string
	}{
		{"upkeep nested inside match", []string{
			"runtime.mallocgc", wq + "(*capTree).insert", wq + "(*schedState).capacityChanged",
			wq + "(*Master).allocCapacity", wq + "(*Master).schedulePassIndexed",
			sim + "(*Engine).RunUntil", "lfm/internal/core.Run", "main.measure",
		}, "wq.index_upkeep_cpu_s"},
		{"upkeep from a completion callback", []string{
			wq + "(*schedState).markDirty", wq + "(*Master).releaseCapacity", sim + "(*Engine).RunUntil",
		}, "wq.index_upkeep_cpu_s"},
		{"matching", []string{
			wq + "(*Master).fits", wq + "(*Master).schedulePassIndexed", sim + "(*Engine).RunUntil",
		}, "wq.match_cpu_s"},
		{"lifecycle", []string{wq + "(*Master).complete.func1", sim + "(*Engine).RunUntil"}, "wq.lifecycle_cpu_s"},
		{"sim.Stats under alloc", []string{
			sim + "(*Stats).Add", "lfm/internal/alloc.(*Auto).chooseDim", "lfm/internal/alloc.(*Auto).label",
			"main.(*probe).Next", wq + "(*Master).schedulePassIndexed",
		}, "alloc.cpu_s"},
		{"the probe itself", []string{"time.Now", "main.(*probe).Next", wq + "(*Master).schedulePassIndexed"}, unattributed},
		{"sim.Backoff under chaos", []string{sim + "Backoff.Delay", "lfm/internal/chaos.(*Engine).retry"}, "chaos.cpu_s"},
		{"engine queue", []string{sim + "(*calendarQueue).push", sim + "(*Engine).After", wq + "(*Master).start"}, "sim.engine_cpu_s"},
		{"fairshare", []string{sim + "fless", sim + "(*FairShare).heapPush", wq + "(*Master).stage"}, "sim.fairshare_cpu_s"},
		{"sink", []string{"lfm/internal/trace.(*Store).Begin", wq + "(*Master).start"}, "trace.cpu_s"},
		{"package with no layer", []string{sim + "(*RNG).Exponential", "lfm/internal/workloads.(*Poisson).Next"}, unattributed},
		{"no internal frame", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, gcBackground},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestProbeCountsRepeatedNext(t *testing.T) {
	p := newProbe(&alloc.Guess{})
	p.Next("a") // first sight of a
	p.Next("a") // repeat
	p.Observe("a", monitor.Report{})
	p.Next("a") // changed by Observe
	p.Next("b") // first sight of b
	p.Retry("b", 1)
	p.Next("b") // changed by Retry
	p.Next("b") // repeat
	if p.nextCalls != 6 || p.observeCalls != 1 || p.repeats != 2 {
		t.Fatalf("next %d observe %d repeats %d, want 6 1 2", p.nextCalls, p.observeCalls, p.repeats)
	}
	if got := p.recomputeFrac(); got != 2.0/6 {
		t.Fatalf("recomputeFrac = %v, want 1/3", got)
	}
	if p.Name() != "Guess" {
		t.Fatalf("Name = %q, want the inner strategy's", p.Name())
	}
}

func TestSummarize(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(vs, n=4).
	cases := []struct {
		in   []float64
		want summary
	}{
		{[]float64{5, 1, 4, 2, 3}, summary{Median: 3, Q1: 1.5, Q3: 4.5, N: 5}},
		{[]float64{4, 3, 2, 1}, summary{Median: 2.5, Q1: 1.25, Q3: 3.75, N: 4}},
		{[]float64{1, 2}, summary{Median: 1.5, Q1: 0.75, Q3: 2.25, N: 2}},
		{[]float64{7}, summary{Median: 7, Q1: 7, Q3: 7, N: 1}},
		{nil, summary{}},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := summarize(c.in); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", in, got, c.want)
		}
		if fmt.Sprint(in) != fmt.Sprint(c.in) {
			t.Errorf("summarize reordered its input to %v", c.in)
		}
	}
}

var burnSink uint64

func burn(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 100000; i++ {
			burnSink = burnSink*6364136223846793005 + 1
		}
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.nanos <= 0 {
			t.Fatalf("sample with %d ns", s.nanos)
		}
		for _, f := range s.frames {
			found = found || strings.HasSuffix(f, ".burn")
		}
	}
	if !found {
		t.Fatalf("no sample among %d holds burn", len(samples))
	}
}

func TestGateFailsOnDigestMismatch(t *testing.T) {
	s := &set{}
	c := map[string]float64{"wq.sched_passes": 3}
	s.add(&result{digest: "sha256:a", counts: c}, "round 1")
	s.add(&result{digest: "sha256:a", counts: map[string]float64{"wq.sched_passes": 4}}, "round 2")
	s.add(&result{digest: "sha256:b", counts: c, probe: newProbe(&alloc.Guess{})}, "traced run")
	if len(s.failures) != 2 || !strings.HasPrefix(s.failures[0], "round 2: count") ||
		!strings.HasPrefix(s.failures[1], "traced run: digest") {
		t.Fatalf("failures = %q", s.failures)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-trace", "2"}, {"-workloads", "nope"}, {"-reps", "0"}, {"extra"}} {
		if code := bench(args, io.Discard, io.Discard); code != exitUsage {
			t.Errorf("bench(%q) = %d, want %d", args, code, exitUsage)
		}
	}
}

// TestSmoke runs every workload at 1% size, untraced and traced, through
// the same code the benchmark runs, and checks the report carries every
// metric BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	o := options{workloads: allWorkloads, seed: 7, reps: 2, trace: true, size: 0.01, progress: io.Discard}
	sets, rounds, err := runSets(o)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(o, rounds, sets)
	if !rep.correct() {
		for _, w := range rep.Workloads {
			t.Errorf("%s: %q", w.Name, w.Failures)
		}
	}
	for _, w := range rep.Workloads {
		if len(w.Digests) != 1 || w.Attempted != 3 {
			t.Errorf("%s: %d digests over %d runs, want 1 over 3", w.Name, len(w.Digests), w.Attempted)
		}
		if got, want := keys(w.EndToEnd), names(endToEnd); got != want {
			t.Errorf("%s end-to-end metrics %s, want %s", w.Name, got, want)
		}
		if got, want := keys(w.PerLayer), names(perLayer); got != want {
			t.Errorf("%s per-layer metrics %s, want %s", w.Name, got, want)
		}
		if s := w.EndToEnd["tasks_per_s"]; s.N != 2 || s.Median <= 0 {
			t.Errorf("%s tasks_per_s = %+v", w.Name, s)
		}
	}
	line := rep.line(false)
	if !line.Correct || line.Attempted != 12 || line.Failed != 0 || len(line.Metrics) != 4*len(endToEnd) {
		t.Errorf("result line %+v", line)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why {
			t.Errorf("workload %d is %+v, want %s: %s", i, w, allWorkloads[i].name, allWorkloads[i].why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better || (m.Bound != nil) != bounded {
				t.Errorf("%s %d is %+v, want %s in %s, %s is better", kind, i, m, d.name, d.unit, better)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}

func keys[V any](m map[string]V) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func names(ds []metricDef) string {
	var ns []string
	for _, d := range ds {
		ns = append(ns, d.name)
	}
	sort.Strings(ns)
	return strings.Join(ns, ",")
}
