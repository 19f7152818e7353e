// Command bench is the repository's benchmark. It times seeded simulated
// runs of four workloads end to end, checks every run's outcome, and splits
// one profiled run per workload across the simulator's layers. README.md
// explains the workloads and every metric.
//
//	sh bench/run.sh [-workloads a,b] [-seed N] [-reps N] [-seconds S] [-trace 0|1] [-json PATH]
//
// Exit codes: 0 every run passed, 1 the benchmark itself failed, 2 bad
// flags, 3 a run failed the correctness gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef is one reported metric; BENCHMARK.json lists the same names.
type metricDef struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
}

// endToEnd metrics come from the untraced rounds.
var endToEnd = []metricDef{
	{"tasks_per_s", "tasks/s", true},
	{"setup_s", "s", false},
	{"allocs_per_task", "objects/task", false},
	{"alloc_bytes_per_task", "B/task", false},
	{"retained_heap_mb", "MB", false},
}

// perLayer metrics come from the traced run, except runtime.gc_cpu_frac,
// runtime.gc_cycles, runtime.peak_heap_mb and harness.ref_kernel_s, which
// are medians over the untraced rounds.
var perLayer = []metricDef{
	{"sim.engine_cpu_s", "s", false},
	{"sim.fairshare_cpu_s", "s", false},
	{"wq.match_cpu_s", "s", false},
	{"wq.index_upkeep_cpu_s", "s", false},
	{"wq.lifecycle_cpu_s", "s", false},
	{"wq.sched_passes", "count", false},
	{"wq.tasks_examined", "count", false},
	{"wq.candidates_examined", "count", false},
	{"wq.blocked_wakes", "count", false},
	{"wq.examined_per_task", "count/task", false},
	{"wq.reported_sched_s", "s", false},
	{"wq.cache_hit_frac", "fraction", true},
	{"wq.bytes_in_gb", "GB", false},
	{"wq.retries", "count", false},
	{"alloc.cpu_s", "s", false},
	{"alloc.next_calls", "count", false},
	{"alloc.next_s", "s", false},
	{"alloc.observe_calls", "count", false},
	{"alloc.next_recompute_frac", "fraction", false},
	{"monitor.cpu_s", "s", false},
	{"sharedfs.cpu_s", "s", false},
	{"cluster.cpu_s", "s", false},
	{"serve.cpu_s", "s", false},
	{"serve.offered", "count", true},
	{"serve.shed_frac", "fraction", false},
	{"serve.peak_inflight", "count", false},
	{"chaos.cpu_s", "s", false},
	{"chaos.injected", "count", false},
	{"trace.cpu_s", "s", false},
	{"trace.spans", "count", false},
	{"metrics.cpu_s", "s", false},
	{"metrics.names", "count", false},
	{"tseries.cpu_s", "s", false},
	{"tseries.attempts", "count", false},
	{"obs.cpu_s", "s", false},
	{"obs.boundaries", "count", false},
	{"runtime.gc_bg_cpu_s", "s", false},
	{"runtime.gc_cpu_frac", "fraction", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.peak_heap_mb", "MB", false},
	{"harness.trace_overhead_frac", "fraction", false},
	{"harness.unattributed_cpu_frac", "fraction", false},
	{"harness.ref_kernel_s", "s", false},
}

// Exit codes, the repository's CLI convention.
const (
	exitOK      = 0
	exitError   = 1
	exitUsage   = 2
	exitVerdict = 3
)

func main() { os.Exit(bench(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one benchmark invocation.
type options struct {
	workloads []workload
	seed      int64
	// Rounds continue until at least reps have run and seconds have passed.
	reps    int
	seconds float64
	trace   bool
	// size scales the workloads; 1 outside tests.
	size float64
	// progress receives one line per run.
	progress io.Writer
}

func bench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names string
	fs.StringVar(&names, "workloads", "", "comma-separated workloads to run (default all)")
	fs.StringVar(&names, "workload", "", "same as -workloads")
	seed := fs.Int64("seed", 7, "seed the workload inputs are generated from")
	reps := fs.Int("reps", 5, "minimum number of measured rounds")
	seconds := fs.Float64("seconds", 0, "keep adding rounds until this many seconds have passed")
	trace := fs.Int("trace", 1, "1 adds one profiled run per workload and reports per-layer metrics")
	jsonPath := fs.String("json", "", "also write the full results as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	o := options{seed: *seed, reps: *reps, seconds: *seconds, trace: *trace == 1, size: 1, progress: stderr}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *reps < 1 || *seconds < 0:
		err = fmt.Errorf("-reps must be >= 1 and -seconds >= 0")
	default:
		o.workloads, err = selectWorkloads(names)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return exitUsage
	}

	sets, rounds, err := runSets(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return exitError
	}
	rep := newReport(o, rounds, sets)
	rep.print(stdout)
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return exitError
		}
	}
	if err := json.NewEncoder(stdout).Encode(rep.line(o.trace)); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return exitError
	}
	if !rep.correct() {
		return exitVerdict
	}
	return exitOK
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return allWorkloads, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, wl := range allWorkloads {
			if wl.name == strings.TrimSpace(n) {
				out = append(out, wl)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// set is every run of one workload in an invocation.
type set struct {
	wl       workload
	runs     []*result // untraced rounds
	traced   *result
	refs     []float64 // reference kernel seconds, one per round
	failures []string
}

// add records a run and applies the correctness gate: a run fails when
// core.Run errs, when check rejects its outcome, or when its digest or
// counts differ from the first run of the set.
func (s *set) add(r *result, label string) {
	if r.err == nil {
		if first := s.first(); first != nil {
			if r.digest != first.digest {
				r.err = fmt.Errorf("digest %s differs from %s", r.digest, first.digest)
			} else if name, ok := diffCounts(first.counts, r.counts); !ok {
				r.err = fmt.Errorf("count %s is %v, first run had %v", name, r.counts[name], first.counts[name])
			}
		}
	}
	if r.err != nil {
		s.failures = append(s.failures, fmt.Sprintf("%s: %v", label, r.err))
	}
	if r.probe != nil {
		s.traced = r
	} else {
		s.runs = append(s.runs, r)
	}
}

// all returns the untraced runs and then the traced run, if any.
func (s *set) all() []*result {
	all := append([]*result(nil), s.runs...)
	if s.traced != nil {
		all = append(all, s.traced)
	}
	return all
}

// first returns the first run of the set that finished core.Run.
func (s *set) first() *result {
	for _, r := range s.all() {
		if r.digest != "" {
			return r
		}
	}
	return nil
}

func diffCounts(a, b map[string]float64) (string, bool) {
	for k, v := range a {
		if b[k] != v {
			return k, false
		}
	}
	return "", len(a) == len(b)
}

// runSets runs the protocol: rounds of one untraced run per workload,
// interleaved so host drift hits every workload alike, then one traced run
// per workload. One goroutine drives every run, each after the previous one
// ends.
func runSets(o options) ([]*set, int, error) {
	sets := make([]*set, len(o.workloads))
	for i, wl := range o.workloads {
		sets[i] = &set{wl: wl}
	}
	start := time.Now()
	rounds := 0
	for ; rounds < o.reps || time.Since(start).Seconds() < o.seconds; rounds++ {
		ref := refKernel()
		for _, s := range sets {
			s.refs = append(s.refs, ref)
			r, err := measure(s.wl, o.seed, o.size, false)
			if err != nil {
				return nil, 0, err
			}
			s.add(r, fmt.Sprintf("round %d", rounds+1))
			fmt.Fprintf(o.progress, "round %d %-12s setup %.3fs run %.3fs %s\n",
				rounds+1, s.wl.name, r.setups[len(r.setups)-1], r.wall, status(r))
		}
	}
	if o.trace {
		for _, s := range sets {
			r, err := measure(s.wl, o.seed, o.size, true)
			if err != nil {
				return nil, 0, err
			}
			s.add(r, "traced run")
			fmt.Fprintf(o.progress, "traced  %-12s run %.3fs %s\n", s.wl.name, r.wall, status(r))
		}
	}
	return sets, rounds, nil
}

func status(r *result) string {
	if r.err != nil {
		return "FAILED: " + r.err.Error()
	}
	return "ok"
}

// refSink keeps the reference kernel's result live.
var refSink float64

// refKernel times a fixed CPU-bound pure-Go loop. Nothing in the program
// changes its work, so when its time moves the host moved: a drift
// sentinel for the other timings.
func refKernel() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	acc := 0.0
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x>>11) * 0x1p-53
	}
	refSink = acc
	return time.Since(start).Seconds()
}

// report is the benchmark's full result.
type report struct {
	Seed       int64            `json:"seed"`
	Rounds     int              `json:"rounds"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Digests   []string           `json:"digests"`
	Attempted int                `json:"attempted"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func newReport(o options, rounds int, sets []*set) *report {
	rep := &report{
		Seed: o.seed, Rounds: rounds,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, s := range sets {
		wr := workloadReport{
			Name: s.wl.name, Why: s.wl.why,
			Attempted: len(s.all()), Failures: s.failures,
			EndToEnd: s.endToEnd(),
		}
		seen := map[string]bool{}
		for _, r := range s.all() {
			if r.digest != "" && !seen[r.digest] {
				seen[r.digest] = true
				wr.Digests = append(wr.Digests, r.digest)
			}
		}
		if s.traced != nil {
			wr.PerLayer = s.perLayer()
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep
}

// passing returns f of every untraced run that passed the gate.
func (s *set) passing(f func(*result) float64) []float64 {
	var vs []float64
	for _, r := range s.runs {
		if r.err == nil {
			vs = append(vs, f(r))
		}
	}
	return vs
}

func (s *set) endToEnd() map[string]summary {
	var tps, setup, allocs, allocBytes, heap []float64
	for _, r := range s.runs {
		if r.err != nil {
			continue
		}
		tps = append(tps, ratio(float64(r.tasks), r.wall))
		setup = append(setup, r.setups...)
		allocs = append(allocs, ratio(r.allocs, float64(r.tasks)))
		allocBytes = append(allocBytes, ratio(r.allocBytes, float64(r.tasks)))
		heap = append(heap, r.liveBytes/1e6)
	}
	return map[string]summary{
		"tasks_per_s":          summarize(tps),
		"setup_s":              summarize(setup),
		"allocs_per_task":      summarize(allocs),
		"alloc_bytes_per_task": summarize(allocBytes),
		"retained_heap_mb":     summarize(heap),
	}
}

func (s *set) perLayer() map[string]float64 {
	t := s.traced
	m := map[string]float64{}
	for _, d := range perLayer {
		if strings.HasSuffix(d.name, "cpu_s") {
			m[d.name] = t.layers[d.name]
		}
	}
	for k, v := range t.counts {
		m[k] = v
	}
	med := func(f func(*result) float64) float64 { return summarize(s.passing(f)).Median }
	wall := med(func(r *result) float64 { return r.wall })
	m["wq.reported_sched_s"] = t.schedSec
	m["alloc.next_calls"] = float64(t.probe.nextCalls)
	m["alloc.next_s"] = t.probe.nextTime.Seconds()
	m["alloc.observe_calls"] = float64(t.probe.observeCalls)
	m["alloc.next_recompute_frac"] = t.probe.recomputeFrac()
	m["runtime.gc_cpu_frac"] = med(func(r *result) float64 { return r.gcCPUFrac })
	m["runtime.gc_cycles"] = med(func(r *result) float64 { return r.gcCycles })
	m["runtime.peak_heap_mb"] = med(func(r *result) float64 { return r.peakHeap / 1e6 })
	m["harness.trace_overhead_frac"] = ratio(t.wall, wall) - 1
	m["harness.unattributed_cpu_frac"] = ratio(t.layers[unattributed], t.cpu)
	m["harness.ref_kernel_s"] = summarize(s.refs).Median
	return m
}

func (rep *report) correct() bool {
	for _, w := range rep.Workloads {
		if len(w.Failures) > 0 {
			return false
		}
	}
	return true
}

func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d, %d rounds, %s, GOMAXPROCS %d\n", rep.Seed, rep.Rounds, rep.GoVersion, rep.GOMAXPROCS)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s: %s\n", wr.Name, wr.Why)
		fmt.Fprintf(w, "  runs %d, failed %d\n", wr.Attempted, len(wr.Failures))
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		for _, d := range wr.Digests {
			fmt.Fprintf(w, "  digest %s\n", d)
		}
		fmt.Fprintf(w, "  %-32s %14s %14s %14s %4s  %s\n", "end to end (untraced)", "median", "q1", "q3", "n", "unit")
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.name]
			fmt.Fprintf(w, "  %-32s %14.6g %14.6g %14.6g %4d  %s, %s\n", d.name, s.Median, s.Q1, s.Q3, s.N, d.unit, direction(d))
		}
		if wr.PerLayer == nil {
			continue
		}
		fmt.Fprintf(w, "  %-32s %14s\n", "per layer (traced run)", "value")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.6g  %s\n", d.name, wr.PerLayer[d.name], d.unit)
		}
	}
}

func direction(d metricDef) string {
	if d.higher {
		return "higher is better"
	}
	return "lower is better"
}

// resultLine is the last line of standard output: with trace off every
// end-to-end metric's median, with trace on every per-layer metric. With
// more than one workload each name is prefixed by "workload/".
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rep *report) line(traced bool) resultLine {
	l := resultLine{Correct: rep.correct(), Metrics: map[string]metricValue{}}
	for _, wr := range rep.Workloads {
		l.Attempted += wr.Attempted
		l.Failed += len(wr.Failures)
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = wr.Name + "/"
		}
		if traced {
			for _, d := range perLayer {
				l.Metrics[prefix+d.name] = metricValue{wr.PerLayer[d.name], d.unit}
			}
		} else {
			for _, d := range endToEnd {
				l.Metrics[prefix+d.name] = metricValue{wr.EndToEnd[d.name].Median, d.unit}
			}
		}
	}
	return l
}

func writeJSON(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
