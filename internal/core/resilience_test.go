package core

import (
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/sim"
	"lfm/internal/workloads"
)

func TestRunWithAutoscale(t *testing.T) {
	w := workloads.HEP(sim.NewRNG(3), 60)
	s, _ := StrategyFor("auto", w)
	out, err := Run(w, RunConfig{
		SiteName: "ndcrc", Workers: 10, Seed: 3, NoBatchLatency: true,
		Strategy: s, Autoscale: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Completed != w.TaskCount() {
		t.Fatalf("completed %d/%d", out.Stats.Completed, w.TaskCount())
	}
}

func TestAutoscaleVsFixedPool(t *testing.T) {
	// An autoscaled pool starts small and grows; the fixed pool has full
	// capacity from the start, so it should be at least as fast — but the
	// autoscaled run must still finish within a reasonable factor.
	mk := func() *workloads.Workload { return workloads.HEP(sim.NewRNG(5), 80) }
	run := func(autoscale bool) sim.Time {
		w := mk()
		s, _ := StrategyFor("oracle", w)
		out, err := Run(w, RunConfig{
			SiteName: "ndcrc", Workers: 10, Seed: 5, NoBatchLatency: true,
			Strategy: s, Autoscale: autoscale,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.Makespan
	}
	fixed := run(false)
	scaled := run(true)
	// Mild wins for the autoscaled run are possible (staggered arrivals
	// serialize environment transfers), but it must stay in the same
	// ballpark as the fixed pool.
	if scaled < fixed*9/10 {
		t.Fatalf("autoscaled (%v) implausibly beat fixed pool (%v)", scaled, fixed)
	}
	if scaled > fixed*3 {
		t.Fatalf("autoscaled %v too slow vs fixed %v", scaled, fixed)
	}
}

// churnFaults is the worker-churn fault schedule: a random connected worker
// dies on average every mtbf and a replacement is requested. It is nil (a
// healthy run) when mtbf is not positive.
func churnFaults(mtbf sim.Time) *chaos.Schedule {
	if mtbf <= 0 {
		return nil
	}
	return &chaos.Schedule{ChurnMTBF: mtbf, ChurnReplace: true}
}

func TestRunWithWorkerChurn(t *testing.T) {
	// Workers die on average every 2 minutes while a ~10 minute workload
	// runs; every task must still complete, with lost tasks resubmitted.
	w := workloads.HEP(sim.NewRNG(11), 100)
	s, _ := StrategyFor("auto", w)
	out, err := Run(w, RunConfig{
		SiteName: "ndcrc", Workers: 8, Seed: 11, NoBatchLatency: true,
		Strategy: s, Faults: churnFaults(120),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 {
		t.Fatalf("failed = %d", out.Failed)
	}
	if out.Stats.Completed != w.TaskCount() {
		t.Fatalf("completed %d/%d", out.Stats.Completed, w.TaskCount())
	}
	if out.Stats.LostTasks == 0 {
		t.Fatal("churn produced no lost tasks; MTBF wiring broken?")
	}
}

func TestChurnSlowsButDoesNotBreak(t *testing.T) {
	mk := func() *workloads.Workload { return workloads.HEP(sim.NewRNG(13), 100) }
	run := func(mtbf sim.Time) sim.Time {
		w := mk()
		s, _ := StrategyFor("oracle", w)
		out, err := Run(w, RunConfig{
			SiteName: "ndcrc", Workers: 8, Seed: 13, NoBatchLatency: true,
			Strategy: s, Faults: churnFaults(mtbf),
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats.Completed != w.TaskCount() {
			t.Fatalf("completed %d/%d", out.Stats.Completed, w.TaskCount())
		}
		return out.Makespan
	}
	calm := run(0)
	stormy := run(60)
	if stormy <= calm {
		t.Fatalf("heavy churn (%v) did not slow the run (calm %v)", stormy, calm)
	}
}

func TestChurnDeterministic(t *testing.T) {
	run := func() sim.Time {
		w := workloads.HEP(sim.NewRNG(17), 50)
		s, _ := StrategyFor("auto", w)
		out, err := Run(w, RunConfig{
			SiteName: "ndcrc", Workers: 6, Seed: 17, NoBatchLatency: true,
			Strategy: s, Faults: churnFaults(90),
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("churned runs diverge: %v vs %v", a, b)
	}
}
