package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"lfm/internal/core"
	"lfm/internal/scenario"
)

// Each run takes setupSamples samples of its input generation, each from a
// freshly collected heap; the last build is the one that runs. A sample
// repeats the build back to back until minSetupSample has passed and
// records the mean: one build of hep-auto takes under a millisecond, most
// of it first-touch page faults, too short to time steadily alone.
const (
	setupSamples   = 3
	minSetupSample = 20 * time.Millisecond
)

// result is what one seeded run of a workload measured.
type result struct {
	setups     []float64 // seconds per input generation
	wall       float64   // seconds in core.Run
	tasks      int       // workload tasks that reached a terminal state
	allocs     float64   // heap objects allocated during core.Run
	allocBytes float64
	liveBytes  float64 // live heap after core.Run, its outcome still referenced
	peakHeap   float64 // largest heap sampled during core.Run
	gcCPUFrac  float64 // GC's share of the process's CPU during core.Run
	gcCycles   float64
	schedSec   float64 // wall time the scheduler timed in its matching passes
	digest     string
	// counts are the deterministic per-layer counts read from the outcome;
	// every run of a workload and seed must repeat them exactly.
	counts map[string]float64
	// err is why the run failed the correctness gate, nil if it passed.
	err error

	// Set on traced runs only.
	probe  *probe
	layers map[string]float64 // CPU seconds per layer bucket
	cpu    float64            // CPU seconds the profile sampled
}

// runMetrics are read before and after core.Run.
var runMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

// readMetrics returns the current values of the named runtime metrics.
func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, v := range s {
		if v.Value.Kind() == metrics.KindFloat64 {
			out[i] = v.Value.Float64()
		} else {
			out[i] = float64(v.Value.Uint64())
		}
	}
	return out
}

// measure generates the workload's inputs from the seed and runs them
// through core.Run. Each run starts from a collected heap with its memory
// returned to the OS, as a fresh process would. A traced run wraps the
// strategy in a probe and records a CPU profile of core.Run.
func measure(wl workload, seed int64, size float64, traced bool) (*result, error) {
	r := &result{}
	var sp *spec
	for range setupSamples {
		sp = nil
		debug.FreeOSMemory() // forces a GC first
		start := time.Now()
		for n := 1; ; n++ {
			var err error
			if sp, err = wl.build(seed, size); err != nil {
				return nil, fmt.Errorf("%s: build: %w", wl.name, err)
			}
			if el := time.Since(start); el >= minSetupSample {
				r.setups = append(r.setups, el.Seconds()/float64(n))
				break
			}
		}
	}

	var prof bytes.Buffer
	if traced {
		r.probe = newProbe(sp.cfg.Strategy)
		sp.cfg.Strategy = r.probe
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	stopPeak := samplePeakHeap()
	before := readMetrics(runMetrics...)
	start := time.Now()
	out, runErr := core.Run(sp.w, sp.cfg)
	r.wall = time.Since(start).Seconds()
	after := readMetrics(runMetrics...)
	r.peakHeap = stopPeak()
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.GC() // out and sp stay referenced: they are read below
	r.liveBytes = readMetrics("/gc/heap/live:bytes")[0]

	if runErr != nil {
		r.err = runErr
		return r, nil
	}
	r.allocs = after[0] - before[0]
	r.allocBytes = after[1] - before[1]
	r.gcCPUFrac = ratio(after[2]-before[2], after[3]-before[3])
	r.gcCycles = after[4] - before[4]
	r.schedSec = float64(out.Sched.ElapsedNanos) / 1e9
	r.tasks = terminal(out)
	r.counts = counts(sp, out, r.tasks)
	r.err = check(sp, out)
	var err error
	if r.digest, err = scenario.OutcomeDigest(out, sp.w.Tasks); err != nil {
		return nil, fmt.Errorf("%s: digest: %w", wl.name, err)
	}
	if traced {
		samples, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		r.layers = map[string]float64{}
		for _, s := range samples {
			sec := float64(s.nanos) / 1e9
			r.layers[layerOf(s.frames)] += sec
			r.cpu += sec
		}
	}
	return r, nil
}

// samplePeakHeap samples the heap's object bytes every 10 ms until the
// returned stop function is called; stop returns the largest value seen.
func samplePeakHeap() (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak)
	}
}

// terminal counts the workload tasks that reached a terminal state:
// completed or failed, and on a serving run also shed, rejected or
// throttled at admission.
func terminal(out *core.Outcome) int {
	if sv := out.Serving; sv != nil {
		return sv.Completed + sv.Failed + sv.Shed + sv.Rejected + sv.Throttled
	}
	return out.Stats.Completed + out.Stats.Failed
}

// check is the correctness gate on a finished run. Digest agreement across
// runs is checked by the caller.
func check(sp *spec, out *core.Outcome) error {
	st := out.Stats
	if sp.cfg.Serving == nil && (st.Submitted != len(sp.w.Tasks) || st.Completed+st.Failed != st.Submitted) {
		return fmt.Errorf("batch run ended with %d completed + %d failed of %d submitted (%d tasks)",
			st.Completed, st.Failed, st.Submitted, len(sp.w.Tasks))
	}
	if ch := out.Chaos; ch != nil && len(ch.Violations) > 0 {
		return fmt.Errorf("%d chaos violations, first: %s", len(ch.Violations), ch.Violations[0])
	}
	if out.Telemetry != nil {
		if err := out.Telemetry.CheckInvariants(); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	return nil
}

// counts reads the deterministic per-layer counts from the run's public
// results.
func counts(sp *spec, out *core.Outcome, tasks int) map[string]float64 {
	st, sc := out.Stats, out.Sched
	c := map[string]float64{
		"wq.sched_passes":        float64(sc.Passes),
		"wq.tasks_examined":      float64(sc.TasksExamined),
		"wq.candidates_examined": float64(sc.CandidatesExamined),
		"wq.blocked_wakes":       float64(sc.BlockedWakes),
		"wq.examined_per_task":   ratio(float64(sc.TasksExamined), float64(tasks)),
		"wq.cache_hit_frac":      ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)),
		"wq.bytes_in_gb":         float64(st.BytesIn) / 1e9,
		"wq.retries":             float64(st.Retries),
		"serve.offered":          0,
		"serve.shed_frac":        0,
		"serve.peak_inflight":    0,
		"chaos.injected":         0,
		"trace.spans":            float64(out.Trace.Store().Len()),
		"metrics.names":          0,
		"tseries.attempts":       0,
		"obs.boundaries":         0,
	}
	if sv := out.Serving; sv != nil {
		c["serve.offered"] = float64(sv.Offered)
		c["serve.shed_frac"] = ratio(float64(sv.Shed), float64(sv.Offered))
		c["serve.peak_inflight"] = float64(sv.PeakInflight)
	}
	if ch := out.Chaos; ch != nil {
		for _, n := range ch.Injected {
			c["chaos.injected"] += float64(n)
		}
	}
	if reg := sp.cfg.Metrics; reg != nil {
		c["metrics.names"] = float64(len(reg.Names()))
	}
	if out.Telemetry != nil {
		c["tseries.attempts"] = float64(len(out.Telemetry.Attempts))
	}
	if out.Obs != nil {
		c["obs.boundaries"] = float64(out.Obs.Boundaries)
	}
	return c
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
