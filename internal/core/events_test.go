package core

import (
	"testing"

	"lfm/internal/cluster"
	"lfm/internal/metrics"
	"lfm/internal/obs"
	"lfm/internal/sim"
	"lfm/internal/tseries"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// scaleEvents runs a fixed small Scale configuration (2,000 one-core tasks
// on 100 four-core workers, seed 7, as the bench's scale-batch model), with
// attach applied to its config, and returns the engine's dispatch count.
func scaleEvents(t *testing.T, attach func(*RunConfig)) uint64 {
	t.Helper()
	w := workloads.Scale(sim.NewRNG(7), 2000, 8)
	s, err := StrategyFor("guess", w)
	if err != nil {
		t.Fatal(err)
	}
	site := cluster.Sites()["ndcrc"]
	site.Nodes = 100
	cfg := RunConfig{
		Site: &site, Workers: 100,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: s, Seed: 7, NoBatchLatency: true,
	}
	attach(&cfg)
	out, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Completed != 2000 {
		t.Fatalf("completed %d of 2000 tasks", out.Stats.Completed)
	}
	return out.events
}

// TestEngineEventBudget gates the engine's event count exactly: a change
// that adds or removes events on the scale model must update the pin
// knowingly. Monitored runs fold their polls without events, and the
// sinks take them from the fold, so the run must dispatch exactly as many
// events with the trace store, metrics registry, telemetry and obs bus
// all attached as bare (their tickers draw no events), and at most 40% of
// the events it dispatches when every poll grid point wakes the engine
// (51,654, the count of the eager poller this replaced). With speculation
// on (multiplier 2) the same holds: the scan asks no sink, so attaching
// them all still adds no event.
func TestEngineEventBudget(t *testing.T) {
	const want, wantSpec = 12548, 12573
	allSinks := func(cfg *RunConfig) {
		cfg.Trace = &wq.Trace{}
		cfg.Metrics = metrics.NewRegistry()
		cfg.Telemetry = tseries.DefaultConfig()
		cfg.Obs = &obs.Config{}
	}
	speculate := func(cfg *RunConfig) { cfg.Resilience = wq.ResilienceConfig{SpeculationMultiplier: 2} }
	lazy := scaleEvents(t, func(*RunConfig) {})
	sinks := scaleEvents(t, allSinks)
	eager := scaleEvents(t, func(cfg *RunConfig) { cfg.pollWakes = true })
	spec := scaleEvents(t, speculate)
	specSinks := scaleEvents(t, func(cfg *RunConfig) { speculate(cfg); allSinks(cfg) })
	t.Logf("events: %d bare, %d with every sink, %d with per-poll wakes; with speculation %d bare, %d with every sink",
		lazy, sinks, eager, spec, specSinks)
	if lazy != want {
		t.Errorf("engine dispatched %d events, want exactly %d", lazy, want)
	}
	if sinks != want {
		t.Errorf("engine dispatched %d events with every sink attached, want exactly %d", sinks, want)
	}
	if 10*lazy > 4*eager {
		t.Errorf("engine dispatched %d events, more than 40%% of the %d with per-poll wakes", lazy, eager)
	}
	if spec != wantSpec || specSinks != wantSpec {
		t.Errorf("with speculation the engine dispatched %d events bare and %d with every sink attached, want exactly %d for both",
			spec, specSinks, wantSpec)
	}
}
