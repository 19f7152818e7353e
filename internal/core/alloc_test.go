package core

import (
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/cluster"
	"lfm/internal/serve"
	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// objectsPerTask runs w under cfg and returns the heap objects the run
// allocated per terminal task (from runtime/metrics, which counts every
// goroutine's allocations; the run is single-threaded). Terminal means
// completed or failed, and on a serving run also turned away at admission.
// Collection is held off during the run: a collection empties the
// sync.Pools that encoding/json and fmt draw their buffers from, so where
// one lands would move the count.
func objectsPerTask(t *testing.T, w *workloads.Workload, cfg RunConfig) float64 {
	t.Helper()
	// A GC flushes the per-P allocation caches, whose counts the runtime
	// otherwise publishes a span at a time.
	sample := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	runtime.GC()
	rtmetrics.Read(sample)
	before := sample[0].Value.Uint64()
	gcPercent := debug.SetGCPercent(-1)
	out, err := Run(w, cfg)
	debug.SetGCPercent(gcPercent)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	rtmetrics.Read(sample)
	terminal := out.Stats.Completed + out.Stats.Failed
	if sv := out.Serving; sv != nil {
		terminal = sv.Completed + sv.Failed + sv.Shed + sv.Rejected + sv.Throttled
	}
	perTask := float64(sample[0].Value.Uint64()-before) / float64(terminal)
	t.Logf("%.2f objects per task", perTask)
	return perTask
}

// allocBudget picks a budget test's bound: each bound sits 10% above the
// count measured in that mode, plain or under -race, whose instrumentation
// adds a few objects. `make allocs` runs the budgets plain and `make check`
// under -race, so a creep fails either.
func allocBudget(plain, race float64) float64 {
	if raceEnabled {
		return race
	}
	return plain
}

// TestScaleAllocBudget keeps the bare path's allocations from creeping
// back: a small Scale run under Guess with cache-affinity placement and no
// sinks (the scale-batch bench model at 2,000 tasks on 100 workers) must
// allocate at most scaleAllocBudget heap objects per task.
func TestScaleAllocBudget(t *testing.T) {
	// Measured at 7.18 objects per task (go1.24, linux/amd64) and 7.59
	// under -race.
	scaleAllocBudget := allocBudget(7.9, 8.3)
	w := workloads.Scale(sim.NewRNG(7), 2000, 8)
	s, err := StrategyFor("guess", w)
	if err != nil {
		t.Fatal(err)
	}
	site := cluster.Sites()["ndcrc"]
	site.Nodes = 100
	cfg := RunConfig{
		Site: &site, Workers: 100, Seed: 7, NoBatchLatency: true,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: s,
	}
	if perTask := objectsPerTask(t, w, cfg); perTask > scaleAllocBudget {
		t.Fatalf("bare Scale run allocates %.2f objects per task, budget %.1f", perTask, scaleAllocBudget)
	}
}

// TestAutoAllocBudget keeps the labelling path's allocations from creeping
// back: a small run shaped like the hep-auto bench model (the paper's HEP
// DAG under Auto, a queue deeper than the pool, no sinks) must allocate at
// most autoAllocBudget heap objects per task.
func TestAutoAllocBudget(t *testing.T) {
	// Measured at 8.40 objects per task (go1.24, linux/amd64) and 8.66
	// under -race.
	autoAllocBudget := allocBudget(9.2, 9.5)
	w := workloads.HEP(sim.NewRNG(7), 200)
	s, err := StrategyFor("auto", w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		SiteName: "ndcrc", Workers: 7, Seed: 7, NoBatchLatency: true,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: s,
	}
	if perTask := objectsPerTask(t, w, cfg); perTask > autoAllocBudget {
		t.Fatalf("HEP run under Auto allocates %.2f objects per task, budget %.1f", perTask, autoAllocBudget)
	}
}

// TestServeAllocBudget keeps the serving path's allocations from creeping
// back: a small run shaped like the storm-serve bench model (open-loop
// Poisson tenants offering about 1.25x the pool's rate through admission
// control, under the overload-storm chaos profile and the full resilience
// stack) must allocate at most serveAllocBudget heap objects per terminal
// task.
func TestServeAllocBudget(t *testing.T) {
	// Measured at 4.95 objects per task (go1.24, linux/amd64) and 5.00
	// under -race. Two thirds of the offers are shed at admission, which
	// is why the count sits below the batch runs'.
	serveAllocBudget := allocBudget(5.4, 5.5)
	const window = 1800 * sim.Second
	w := workloads.Scale(sim.NewRNG(7), 5600, 8)
	s, err := StrategyFor("guess", w)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := chaos.Profile("overload-storm", window)
	if err != nil {
		t.Fatal(err)
	}
	site := cluster.Sites()["ndcrc"]
	site.Nodes = 24
	cfg := RunConfig{
		Site: &site, Workers: 12, Seed: 7, NoBatchLatency: true,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: s, Faults: faults, ChaosSeed: 1,
		Resilience: wq.ResilienceConfig{
			HeartbeatInterval:     10 * sim.Second,
			SpeculationMultiplier: 2,
			QuarantineThreshold:   3,
			StagingRetries:        3,
		},
		Serving: &serve.Config{
			Window: window, MaxInflight: 156, ShedWatermark: 117,
			Tenants: []serve.TenantConfig{
				{Name: "api", Weight: 2, Priority: 1, Arrival: &workloads.Poisson{Rate: 1.5}},
				{Name: "batch", Weight: 1, Arrival: &workloads.Poisson{Rate: 0.94}},
				{Name: "adhoc", Weight: 1, Arrival: &workloads.Poisson{Rate: 0.56}},
			},
		},
	}
	if perTask := objectsPerTask(t, w, cfg); perTask > serveAllocBudget {
		t.Fatalf("storm-serve run allocates %.2f objects per task, budget %.1f", perTask, serveAllocBudget)
	}
}
