package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/sim"
	"lfm/internal/tseries"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// TestTelemetryBehaviorNeutral checks the acceptance criterion: with
// RunConfig.Telemetry set, the Outcome is byte-identical to a bare run —
// recording is passive.
func TestTelemetryBehaviorNeutral(t *testing.T) {
	run := func(tcfg *tseries.Config) []byte {
		t.Helper()
		w := workloads.HEP(sim.NewRNG(42), 60)
		out, err := Run(w, RunConfig{
			SiteName: "ndcrc", Workers: 4, Seed: 42,
			Faults:    churnFaults(150), // churn exercises loss/abort paths too
			Telemetry: tcfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bare := run(nil)
	telem := run(tseries.DefaultConfig())
	if !bytes.Equal(bare, telem) {
		t.Fatalf("telemetry run outcome differs from bare:\nbare:  %s\ntelem: %s", bare, telem)
	}
}

// TestTelemetrySpeculationNeutral repeats TestTelemetryBehaviorNeutral with
// speculation on, under the stragglers chaos profile, at a multiplier no
// attempt outlives, so every backup comes from the flatline rule: the
// Outcome must be byte-identical with and without telemetry, and the
// telemetry run must record one AnomalyFlatline per flatlined attempt,
// covering every task that got a backup.
func TestTelemetrySpeculationNeutral(t *testing.T) {
	run := func(tcfg *tseries.Config) (*Outcome, []byte) {
		t.Helper()
		faults, err := chaos.Profile("stragglers", 600)
		if err != nil {
			t.Fatal(err)
		}
		w := workloads.HEP(sim.NewRNG(42), 60)
		out, err := Run(w, RunConfig{
			SiteName: "ndcrc", Workers: 4, Seed: 42, Faults: faults,
			Resilience: wq.ResilienceConfig{SpeculationMultiplier: 1000},
			Telemetry:  tcfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return out, b
	}
	_, bare := run(nil)
	out, telem := run(tseries.DefaultConfig())
	if !bytes.Equal(bare, telem) {
		t.Fatalf("telemetry run outcome differs from bare:\nbare:  %s\ntelem: %s", bare, telem)
	}
	rs := out.Stats.Resilience
	if rs == nil || rs.SpecLaunched == 0 {
		t.Fatalf("no flatline-triggered speculation: %+v", rs)
	}
	type attemptKey struct{ task, attempt int }
	flagged, tasks := map[attemptKey]bool{}, map[int]bool{}
	for _, a := range out.Telemetry.Anomalies {
		if a.Kind != tseries.AnomalyFlatline {
			continue
		}
		k := attemptKey{a.Task, a.Attempt}
		if flagged[k] {
			t.Fatalf("attempt %+v recorded as flatlined twice", k)
		}
		flagged[k], tasks[a.Task] = true, true
	}
	for _, a := range out.Telemetry.Attempts {
		if a.Speculative && !tasks[a.Task] {
			t.Fatalf("task %d got a backup with no flatline recorded", a.Task)
		}
	}
	t.Logf("%d backups, %d flatlined attempts", rs.SpecLaunched, len(flagged))
}

// TestTelemetryAndTraceNeutral repeats the check with tracing on: the traced
// spans of a telemetry run must be byte-identical to a bare traced run
// (anomaly spans aside — this quiet run must produce none).
func TestTelemetryAndTraceNeutral(t *testing.T) {
	run := func(tcfg *tseries.Config) []byte {
		t.Helper()
		w := workloads.HEP(sim.NewRNG(7), 40)
		tr := &wq.Trace{}
		_, err := Run(w, RunConfig{
			SiteName: "ndcrc", Workers: 4, Seed: 7, NoBatchLatency: true,
			Trace: tr, Telemetry: tcfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := tr.Store().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(run(nil), run(tseries.DefaultConfig())) {
		t.Fatal("telemetry perturbed the trace of a quiet run")
	}
}

// TestTelemetryDeterministic checks the other half of the criterion: two
// same-seed runs with telemetry enabled export byte-identical JSONL.
func TestTelemetryDeterministic(t *testing.T) {
	export := func() []byte {
		w := workloads.DrugScreen(sim.NewRNG(11), 8)
		s, _ := StrategyFor("auto", w)
		out, err := Run(w, RunConfig{
			SiteName: "theta", Workers: 6, Seed: 11, NoBatchLatency: true,
			Strategy: s, Telemetry: tseries.DefaultConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Telemetry == nil {
			t.Fatal("telemetry enabled but outcome carries none")
		}
		if err := out.Telemetry.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := tseries.WriteJSONL(&b, []*tseries.RunTelemetry{out.Telemetry}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed telemetry exports differ")
	}
}

// telemetryFor runs DrugScreen under one strategy and returns the telemetry.
// DrugScreen is the paper's over-reservation story: the user guess is 16
// cores / 40 GB against tasks that use 1–8 cores, so reserved-but-idle
// capacity separates the strategies cleanly.
func telemetryFor(t *testing.T, strategy string) *tseries.RunTelemetry {
	t.Helper()
	w := workloads.DrugScreen(sim.NewRNG(23), 80)
	s, err := StrategyFor(strategy, w)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(w, RunConfig{
		SiteName: "theta", Workers: 6, Seed: 23, NoBatchLatency: true,
		Strategy: s, Telemetry: tseries.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 {
		t.Fatalf("%s failed %d tasks", strategy, out.Failed)
	}
	if err := out.Telemetry.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return out.Telemetry
}

// TestAutoPacksTighterThanGuessAndUnmanaged reproduces the paper's packing
// claim from recorded data: on DrugScreen, Auto's learned labels waste less
// of the reserved capacity than a user guess or whole-node unmanaged
// allocation.
func TestAutoPacksTighterThanGuessAndUnmanaged(t *testing.T) {
	auto := telemetryFor(t, "auto").Util
	guess := telemetryFor(t, "guess").Util
	unmanaged := telemetryFor(t, "unmanaged").Util
	// Guess and Unmanaged over-reserve: their packing efficiency (used over
	// allocated core-time) must trail Auto's.
	if auto.PackingEfficiency <= guess.PackingEfficiency {
		t.Fatalf("auto packing %.3f <= guess %.3f", auto.PackingEfficiency, guess.PackingEfficiency)
	}
	if auto.PackingEfficiency <= unmanaged.PackingEfficiency {
		t.Fatalf("auto packing %.3f <= unmanaged %.3f", auto.PackingEfficiency, unmanaged.PackingEfficiency)
	}
	// Core waste relative to provisioned capacity — the same denominator for
	// every strategy — must be lowest under Auto.
	if auto.WasteFraction >= guess.WasteFraction {
		t.Fatalf("auto waste %.3f >= guess %.3f", auto.WasteFraction, guess.WasteFraction)
	}
	if auto.WasteFraction >= unmanaged.WasteFraction {
		t.Fatalf("auto waste %.3f >= unmanaged %.3f", auto.WasteFraction, unmanaged.WasteFraction)
	}
	// Absolute reserved-but-idle memory likewise: Auto's learned labels strand
	// far fewer MB-seconds than a 40 GB guess or a whole node per task.
	idle := func(u tseries.UtilizationSummary) float64 {
		return u.AllocatedMemMBSeconds - u.UsedMemMBSeconds
	}
	if idle(auto) >= idle(guess) {
		t.Fatalf("auto idle mem %.0f >= guess %.0f", idle(auto), idle(guess))
	}
	if idle(auto) >= idle(unmanaged) {
		t.Fatalf("auto idle mem %.0f >= unmanaged %.0f", idle(auto), idle(unmanaged))
	}
}

// TestTelemetryProfilesAuditLabels checks the alloc-insight product: Auto's
// telemetry carries per-category profiles with the strategy's current label
// and its coverage of the observed peak distribution.
func TestTelemetryProfilesAuditLabels(t *testing.T) {
	rt := telemetryFor(t, "auto")
	if len(rt.Profiles) == 0 {
		t.Fatal("no profiles recorded")
	}
	labeled := 0
	for _, p := range rt.Profiles {
		if p.Completed == 0 {
			t.Fatalf("profile %q has no completions", p.Category)
		}
		if p.PeakMemMB.Max <= 0 || p.PeakMemMB.P50 > p.PeakMemMB.Max {
			t.Fatalf("profile %q percentiles malformed: %+v", p.Category, p.PeakMemMB)
		}
		if p.Label != nil {
			labeled++
			if p.LabelCoverage < 0 || p.LabelCoverage > 1 {
				t.Fatalf("profile %q coverage %g", p.Category, p.LabelCoverage)
			}
		}
	}
	if labeled == 0 {
		t.Fatal("no profile carries an Auto label to audit")
	}
}
