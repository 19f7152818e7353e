package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/core"
	"lfm/internal/monitor"
	"lfm/internal/scenario"
	"lfm/internal/serve"
	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// pollOutput is what the poll differential compares: the marshalled
// outcome, the outcome digest (summary plus every task's lifecycle), every
// task's monitor report, and the span trace when the run was traced.
type pollOutput struct {
	outcome, reports, trace []byte
	digest                  string
}

// runPollVariant executes a freshly built spec, optionally traced and
// optionally with per-grid-point monitor wakes forced.
func runPollVariant(t *testing.T, build func() (*scenario.Spec, error), wakes, traced bool) pollOutput {
	t.Helper()
	spec, err := build()
	if err != nil {
		t.Fatal(err)
	}
	var tr *wq.Trace
	if traced {
		tr = &wq.Trace{}
	}
	out, err := spec.Config.RunScenario(spec.Workload, func(cfg *core.RunConfig) {
		cfg.Trace = tr
		if s := spec.Serving; s != nil {
			cfg.Serving = &serve.Config{Window: s.Window, MaxInflight: s.MaxInflight, ShedWatermark: s.ShedWatermark}
			for _, tn := range s.Tenants {
				cfg.Serving.Tenants = append(cfg.Serving.Tenants, serve.TenantConfig{
					Name: tn.Name, Weight: tn.Weight, Priority: tn.Priority,
					Rate: tn.Rate, Burst: tn.Burst, Cooperative: tn.Cooperative,
					Arrival: tn.Arrival,
				})
			}
		}
		if wakes {
			core.WithPollWakes(cfg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var po pollOutput
	if po.outcome, err = json.Marshal(out); err != nil {
		t.Fatal(err)
	}
	if po.digest, err = scenario.OutcomeDigest(out, spec.Workload.Tasks); err != nil {
		t.Fatal(err)
	}
	reports := make([]monitor.Report, len(spec.Workload.Tasks))
	for i, task := range spec.Workload.Tasks {
		reports[i] = task.Report
	}
	if po.reports, err = json.Marshal(reports); err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		var b bytes.Buffer
		if err := tr.Store().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		po.trace = b.Bytes()
	}
	return po
}

// checkPollDifferential compares a bare run, where monitors fold their
// polls and wake only to kill, against the same run with per-grid-point
// wakes forced (the eager event pattern), untraced and traced. The traced
// pair pins that the forced wakes leave the span trace alone: the trace
// takes its poll counts from the fold, so both record the same spans.
func checkPollDifferential(t *testing.T, build func() (*scenario.Spec, error)) {
	bare := runPollVariant(t, build, false, false)
	traced := runPollVariant(t, build, false, true)
	tracedWakes := runPollVariant(t, build, true, true)
	for _, v := range []struct {
		name string
		got  pollOutput
	}{
		{"forced-wakes", runPollVariant(t, build, true, false)},
		{"traced", traced},
		{"traced-forced-wakes", tracedWakes},
	} {
		if !bytes.Equal(v.got.outcome, bare.outcome) {
			t.Fatalf("%s: outcome diverges from the bare run:\n%s\n%s", v.name, v.got.outcome, bare.outcome)
		}
		if v.got.digest != bare.digest {
			t.Fatalf("%s: outcome digest %s, bare run %s", v.name, v.got.digest, bare.digest)
		}
		if !bytes.Equal(v.got.reports, bare.reports) {
			t.Fatalf("%s: monitor reports diverge from the bare run", v.name)
		}
	}
	if !bytes.Equal(tracedWakes.trace, traced.trace) {
		t.Fatal("span traces diverge with forced wakes")
	}
}

// TestPollDifferentialEndToEnd proves lazy monitor polling reproduces
// eager per-poll events byte for byte, over every canned scenario and a
// random workload built for ties: whole-second phases, fork offsets and
// kill delays on a one-second poll grid, Auto labels that kill, and the
// storm profile's zombie kills.
func TestPollDifferentialEndToEnd(t *testing.T) {
	for _, sc := range scenario.All() {
		t.Run(sc.Name, func(t *testing.T) {
			checkPollDifferential(t, func() (*scenario.Spec, error) { return sc.Instantiate(0) })
		})
	}
	t.Run("random-whole-seconds", func(t *testing.T) {
		checkPollDifferential(t, func() (*scenario.Spec, error) { return wholeSecondSpec(7) })
	})
}

// wholeSecondSpec builds a seeded random workload whose phase durations and
// fork offsets are whole seconds, so completions, forks and exits land on
// poll grid points, run under Auto (whose early labels undershoot and
// kill) with the storm profile and full resilience.
func wholeSecondSpec(seed int64) (*scenario.Spec, error) {
	rng := sim.NewRNG(seed)
	w := &workloads.Workload{
		Name:        "whole-seconds",
		OraclePeaks: map[string]monitor.Resources{},
		Guess:       monitor.Resources{Cores: 1, MemoryMB: 1024, DiskMB: 256},
	}
	whole := func(lo, hi int) sim.Time { return sim.Time(lo + rng.Intn(hi-lo+1)) }
	// Mostly modest memory with a rare large phase, so labels learned from
	// the common case undershoot and the monitor kills.
	mem := func() float64 {
		if rng.Intn(12) == 0 {
			return float64(100 * (8 + rng.Intn(16)))
		}
		return float64(100 * (1 + rng.Intn(4)))
	}
	for id := 0; id < 300; id++ {
		cat := fmt.Sprintf("ws-%d", id%3)
		var spec monitor.ProcSpec
		for n := 1 + rng.Intn(3); n > 0; n-- {
			spec.Phases = append(spec.Phases, monitor.Phase{
				Duration: whole(1, 12),
				Usage:    monitor.Resources{Cores: 1, MemoryMB: mem(), DiskMB: 64},
			})
		}
		if rng.Intn(3) == 0 {
			spec.Children = []monitor.ChildSpec{{
				StartOffset: whole(0, 6),
				Spec:        monitor.Proc(whole(1, 5), monitor.Resources{Cores: 1, MemoryMB: mem()}),
			}}
		}
		w.Tasks = append(w.Tasks, &wq.Task{
			ID: id, Category: cat, Spec: spec,
			Inputs:      []*wq.File{{Name: fmt.Sprintf("ws-in-%d.dat", id), SizeBytes: 1e5}},
			OutputBytes: 1e5,
		})
	}
	faults, err := chaos.Profile("storm", 300)
	if err != nil {
		return nil, err
	}
	return &scenario.Spec{Workload: w, Config: core.ScenarioConfig{
		Workers: 6, Strategy: "auto", Seed: seed, ChaosSeed: 11, NoBatchLatency: true,
		Faults: faults,
		Resilience: wq.ResilienceConfig{
			HeartbeatInterval: 10, SuspicionTimeout: 30, SpeculationMultiplier: 2,
			QuarantineThreshold: 3, StagingRetries: 3,
		},
	}}, nil
}
