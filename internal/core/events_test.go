package core

import (
	"testing"

	"lfm/internal/cluster"
	"lfm/internal/sim"
	"lfm/internal/workloads"
)

// scaleEvents runs a fixed small Scale configuration (2,000 one-core tasks
// on 100 four-core workers, seed 7, as the bench's scale-batch model) and
// returns the engine's dispatch count.
func scaleEvents(t *testing.T, pollWakes bool) uint64 {
	t.Helper()
	w := workloads.Scale(sim.NewRNG(7), 2000, 8)
	s, err := StrategyFor("guess", w)
	if err != nil {
		t.Fatal(err)
	}
	site := cluster.Sites()["ndcrc"]
	site.Nodes = 100
	out, err := Run(w, RunConfig{
		Site: &site, Workers: 100,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: s, Seed: 7, NoBatchLatency: true, pollWakes: pollWakes,
	})
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
// knowingly. Bare monitored runs fold their polls without events, so the
// run must also dispatch at most 40% of the events it dispatches when
// every poll grid point wakes the engine (51,654, the count of the eager
// poller this replaced).
func TestEngineEventBudget(t *testing.T) {
	const want = 12548
	lazy, eager := scaleEvents(t, false), scaleEvents(t, true)
	t.Logf("events: %d bare, %d with per-poll wakes", lazy, eager)
	if lazy != want {
		t.Errorf("engine dispatched %d events, want exactly %d", lazy, want)
	}
	if 10*lazy > 4*eager {
		t.Errorf("engine dispatched %d events, more than 40%% of the %d with per-poll wakes", lazy, eager)
	}
}
