package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/metrics"
	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

func TestInstrumentedRun(t *testing.T) {
	w := workloads.HEP(sim.NewRNG(7), 60)
	reg := metrics.NewRegistry()
	s, _ := StrategyFor("auto", w)
	out, err := Run(w, RunConfig{
		SiteName: "ndcrc", Workers: 4, Seed: 7, NoBatchLatency: true,
		Strategy: s, Metrics: reg, MetricsResolution: 2 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Sampler == nil {
		t.Fatal("no sampler on instrumented run")
	}

	// Counters across layers agree with the master's own statistics.
	var submitted float64
	for _, ts := range out.Sampler.Series() {
		if ts.Name == "wq_tasks_submitted_total" {
			submitted += ts.Points[len(ts.Points)-1].V
		}
	}
	if submitted != float64(out.Stats.Submitted) {
		t.Fatalf("submitted counter = %v, stats = %d", submitted, out.Stats.Submitted)
	}
	if got := reg.Counter("lfm_runs_total").Value(); got < float64(out.Stats.Completed) {
		t.Fatalf("lfm runs = %v < completed %d", got, out.Stats.Completed)
	}
	if got := reg.Counter("cluster_provision_requests_total", metrics.L("site", "ND-CRC")).Value(); got != 4 {
		t.Fatalf("provision requests = %v", got)
	}
	if auto := reg.Counter("alloc_observations_total", metrics.L("category", "hep-ana")).Value(); auto == 0 {
		t.Fatal("auto strategy observations not counted")
	}

	// The sampled utilization timeline covers the run and ends drained.
	ts := out.Sampler.Find("wq_cores_allocated")
	if ts == nil || len(ts.Points) < 2 {
		t.Fatalf("cores-allocated series = %+v", ts)
	}
	if last := ts.Points[len(ts.Points)-1]; last.V != 0 {
		t.Fatalf("final cores allocated = %v", last.V)
	}
	// The last sample is the drained run's, at exactly the makespan.
	if lastAt := ts.Points[len(ts.Points)-1].At; lastAt != out.Makespan {
		t.Fatalf("last sample at %v, makespan %v", lastAt, out.Makespan)
	}

	// The registry exports as valid (non-empty) Prometheus text.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty exposition")
	}

	// An uninstrumented run of the same workload behaves identically.
	w2 := workloads.HEP(sim.NewRNG(7), 60)
	s2, _ := StrategyFor("auto", w2)
	plain, err := Run(w2, RunConfig{
		SiteName: "ndcrc", Workers: 4, Seed: 7, NoBatchLatency: true, Strategy: s2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sampler != nil {
		t.Fatal("sampler on uninstrumented run")
	}
	if plain.Stats.Completed != out.Stats.Completed || plain.Stats.Retries != out.Stats.Retries {
		t.Fatalf("instrumentation changed outcomes: %+v vs %+v", plain.Stats, out.Stats)
	}
	if plain.Makespan != out.Makespan {
		t.Fatalf("sampler moved the makespan %v -> %v", plain.Makespan, out.Makespan)
	}
}

// TestMetricsBehaviorNeutral is TestObsBehaviorNeutral for the metrics
// sampler: with a registry attached, the Outcome (bar the sampler itself)
// and the trace are byte-identical to an uninstrumented run, on a hostile
// run (chaos storm + full resilience) whose end the sampler could stretch.
func TestMetricsBehaviorNeutral(t *testing.T) {
	run := func(reg *metrics.Registry) (outcome, trace []byte) {
		t.Helper()
		w := workloads.HEP(sim.NewRNG(31), 60)
		s, _ := StrategyFor("auto", w)
		sched, err := chaos.Profile("storm", 500)
		if err != nil {
			t.Fatal(err)
		}
		tr := &wq.Trace{}
		out, err := Run(w, RunConfig{
			SiteName: "ndcrc", Workers: 6, Seed: 31, NoBatchLatency: true,
			Strategy: s, Resilience: fullResilience(), Faults: sched,
			Trace: tr, Metrics: reg, MetricsResolution: 7 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if (out.Sampler != nil) != (reg != nil) {
			t.Fatalf("sampler = %v with registry %v", out.Sampler, reg)
		}
		out.Sampler = nil
		ob, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		var tb bytes.Buffer
		if err := tr.Store().WriteJSON(&tb); err != nil {
			t.Fatal(err)
		}
		return ob, tb.Bytes()
	}
	bareOut, bareTr := run(nil)
	metOut, metTr := run(metrics.NewRegistry())
	if !bytes.Equal(bareOut, metOut) {
		t.Fatalf("metrics run outcome differs from bare:\nbare:    %s\nmetrics: %s", bareOut, metOut)
	}
	if !bytes.Equal(bareTr, metTr) {
		t.Fatal("metrics perturbed the trace")
	}
}
