package core

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"testing"

	"lfm/internal/cluster"
	"lfm/internal/sim"
	"lfm/internal/workloads"
)

// objectsPerTask runs w under cfg and returns the heap objects the run
// allocated per finished task (from runtime/metrics, which counts every
// goroutine's allocations; the run is single-threaded).
func objectsPerTask(t *testing.T, w *workloads.Workload, cfg RunConfig) float64 {
	t.Helper()
	// A GC flushes the per-P allocation caches, whose counts the runtime
	// otherwise publishes a span at a time.
	sample := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	runtime.GC()
	rtmetrics.Read(sample)
	before := sample[0].Value.Uint64()
	out, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	rtmetrics.Read(sample)
	perTask := float64(sample[0].Value.Uint64()-before) / float64(out.Stats.Completed+out.Stats.Failed)
	t.Logf("%.2f objects per task", perTask)
	return perTask
}

// TestScaleAllocBudget keeps the bare path's allocations from creeping
// back: a small Scale run under Guess with cache-affinity placement and no
// sinks (the scale-batch bench model at 2,000 tasks on 100 workers) must
// allocate at most scaleAllocBudget heap objects per task.
func TestScaleAllocBudget(t *testing.T) {
	// Measured at 24.0 objects per task (go1.24, linux/amd64) and 24.4
	// under -race, whose instrumentation adds a few; the bound is 10%
	// above the plain count, so it holds under -race too and make check
	// (which runs the suite only with -race) catches a creep.
	const scaleAllocBudget = 26.4
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
	// Measured at 24.5 objects per task (go1.24, linux/amd64) and 24.8
	// under -race; the bound is 10% above the plain count, as for
	// TestScaleAllocBudget.
	const autoAllocBudget = 27.0
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
