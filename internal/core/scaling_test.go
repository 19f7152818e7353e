package core

import (
	"testing"

	"lfm/internal/alloc"
	"lfm/internal/cluster"
	"lfm/internal/sim"
	"lfm/internal/workloads"
)

// nextCounter counts the Next calls a run makes on its strategy.
type nextCounter struct {
	alloc.Strategy
	calls int
}

func (c *nextCounter) Next(category string) alloc.Decision {
	c.calls++
	return c.Strategy.Next(category)
}

// autoWork runs Auto on a Scale workload of n tasks with n/20 workers
// under cache affinity, and returns the scheduler's task examinations, the
// Next calls and the engine events, each per terminal task.
func autoWork(t *testing.T, n int) (examined, next, events float64) {
	t.Helper()
	w := workloads.Scale(sim.NewRNG(7), n, 8)
	s := &nextCounter{Strategy: alloc.NewAuto()}
	site := cluster.Sites()["ndcrc"]
	site.Nodes = n / 20
	out, err := Run(w, RunConfig{
		Site: &site, Workers: n / 20, Seed: 7, NoBatchLatency: true,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := float64(out.Stats.Completed + out.Stats.Failed)
	if done != float64(n) {
		t.Fatalf("%d tasks: %v reached a terminal state", n, done)
	}
	return float64(out.Sched.TasksExamined) / done, float64(s.calls) / done, float64(out.events) / done
}

// TestAutoWorkPerTaskFlat keeps Auto linear in queue depth: doubling the
// task count (and the pool with it) may grow the scheduler's examinations,
// the strategy's Next calls and the engine's events per task by at most
// 1.3x. A matcher that re-examined a category's whole backlog on every
// label change would double examinations per task with the task count.
func TestAutoWorkPerTaskFlat(t *testing.T) {
	const maxGrowth = 1.3
	n := 2000
	if raceEnabled {
		n = 500
	}
	exN, nextN, evN := autoWork(t, n)
	ex2N, next2N, ev2N := autoWork(t, 2*n)
	for _, c := range []struct {
		name    string
		at, at2 float64
	}{
		{"tasks examined", exN, ex2N},
		{"Next calls", nextN, next2N},
		{"engine events", evN, ev2N},
	} {
		t.Logf("%s per task: %.2f at %d tasks, %.2f at %d", c.name, c.at, n, c.at2, 2*n)
		if c.at2 > maxGrowth*c.at {
			t.Errorf("%s per task grew %.2fx from %d to %d tasks, limit %.1fx", c.name, c.at2/c.at, n, 2*n, maxGrowth)
		}
	}
}
