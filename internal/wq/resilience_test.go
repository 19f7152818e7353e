package wq

import (
	"testing"

	"lfm/internal/alloc"
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

func oracleCfg() Config {
	return quickCfg(&alloc.Oracle{Peaks: map[string]monitor.Resources{
		"t": {Cores: 1, MemoryMB: 100, DiskMB: 10}}})
}

// holder returns the worker currently running an attempt of the task.
func holder(m *Master, tk *Task) *Worker {
	for _, w := range m.workers {
		for _, a := range w.attempts {
			if a.t == tk {
				return w
			}
		}
	}
	return nil
}

func TestHeartbeatDetectionLatency(t *testing.T) {
	cfg := oracleCfg()
	cfg.Resilience = ResilienceConfig{HeartbeatInterval: 5, SuspicionTimeout: 15}
	eng, m := testRig(t, 2, cfg)
	task := simpleTask(1, 100, 100)
	eng.At(0, func() { m.Submit(task) })
	// Crash the worker running the task at t=22: the last heartbeat was at
	// t=20, so suspicion fires at t=35 — a detection latency of 13s.
	eng.At(22, func() {
		w := holder(m, task)
		if w == nil {
			t.Fatal("task not running at t=22")
		}
		m.CrashWorker(w)
	})
	end := eng.Run()
	if task.State != TaskDone {
		t.Fatalf("task state = %v", task.State)
	}
	rs := m.Stats().Resilience
	if rs == nil {
		t.Fatal("no resilience stats recorded")
	}
	if rs.DetectionDelays.N() != 1 {
		t.Fatalf("detection samples = %d, want 1", rs.DetectionDelays.N())
	}
	if got := rs.DetectionDelays.Mean(); got <= 10 || got > 15 {
		t.Fatalf("detection latency = %v, want in (10, 15]", got)
	}
	if got := rs.DetectionDelays.Mean(); got != 13 {
		t.Fatalf("detection latency = %v, want 13 (crash 22, last beat 20, timeout 15)", got)
	}
	if m.Stats().LostTasks != 1 {
		t.Fatalf("lost tasks = %d, want 1", m.Stats().LostTasks)
	}
	// Recovered at t=35 on the surviving worker, then a fresh 100s run.
	if end < 135 {
		t.Fatalf("makespan = %v, want >= 135 (detection delay + full rerun)", end)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashWithoutHeartbeatsIsImmediate(t *testing.T) {
	// Zero resilience config: CrashWorker degrades to the omniscient
	// RemoveWorker model and the task restarts the same instant.
	eng, m := testRig(t, 2, oracleCfg())
	task := simpleTask(1, 100, 100)
	eng.At(0, func() { m.Submit(task) })
	eng.At(22, func() { m.CrashWorker(holder(m, task)) })
	end := eng.Run()
	if task.State != TaskDone {
		t.Fatalf("task state = %v", task.State)
	}
	if end != 122 {
		t.Fatalf("makespan = %v, want 122 (instant detection at 22 + rerun)", end)
	}
	if m.Stats().LostTasks != 1 {
		t.Fatalf("lost tasks = %d", m.Stats().LostTasks)
	}
	if m.Stats().Resilience != nil {
		t.Fatalf("resilience stats = %+v, want none for undisturbed config", m.Stats().Resilience)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// stragglerMakespan runs 16 one-core 10s tasks on two 8-core workers, one of
// which executes everything 10x slower, and reports the makespan.
func stragglerMakespan(t *testing.T, res ResilienceConfig) (sim.Time, *Master) {
	t.Helper()
	cfg := oracleCfg()
	cfg.Resilience = res
	eng, m := testRig(t, 2, cfg)
	eng.At(0, func() {
		m.SlowWorker(m.workers[0], 10)
		for i := 0; i < 16; i++ {
			m.Submit(simpleTask(i, 10, 100))
		}
	})
	end := eng.Run()
	if got := m.Stats().Completed; got != 16 {
		t.Fatalf("completed = %d, want 16", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return end, m
}

func TestSpeculationRescuesStragglers(t *testing.T) {
	// Without speculation the run waits 100s for the slow worker's tasks.
	without, _ := stragglerMakespan(t, ResilienceConfig{})
	if without < 100 {
		t.Fatalf("makespan without speculation = %v, want >= 100", without)
	}
	// With it, backups launch on the fast worker once the category mean is
	// established (fast tasks finish at t=10) and age exceeds 2x mean.
	with, m := stragglerMakespan(t, ResilienceConfig{SpeculationMultiplier: 2})
	if with >= without {
		t.Fatalf("speculation did not help: %v >= %v", with, without)
	}
	if with >= 60 {
		t.Fatalf("makespan with speculation = %v, want < 60", with)
	}
	rs := m.Stats().Resilience
	if rs == nil || rs.SpecLaunched == 0 {
		t.Fatalf("no speculative attempts launched: %+v", rs)
	}
	if rs.SpecWins == 0 {
		t.Fatalf("no speculative wins: %+v", rs)
	}
	if rs.SpecWins+rs.SpecCancelled != rs.SpecLaunched {
		t.Fatalf("speculation accounting: launched %d != wins %d + cancelled %d",
			rs.SpecLaunched, rs.SpecWins, rs.SpecCancelled)
	}
}

func TestStagingRetryRecovers(t *testing.T) {
	cfg := oracleCfg()
	cfg.Resilience = ResilienceConfig{StagingRetries: 3}
	eng, m := testRig(t, 1, cfg)
	task := simpleTask(1, 10, 100)
	task.Inputs = []*File{{Name: "data", SizeBytes: 1 << 20}}
	fails := 2
	m.SetStagingFault(func(*Worker, *File) bool {
		if fails > 0 {
			fails--
			return true
		}
		return false
	})
	eng.At(0, func() { m.Submit(task) })
	eng.Run()
	if task.State != TaskDone {
		t.Fatalf("task state = %v", task.State)
	}
	rs := m.Stats().Resilience
	if rs == nil || rs.StagingRetries != 2 {
		t.Fatalf("staging retries = %+v, want 2", rs)
	}
	if rs.StagingFailures != 0 {
		t.Fatalf("staging failures = %d, want 0", rs.StagingFailures)
	}
	if task.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (retries are within the attempt)", task.Attempts)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStagingExhaustionConsumesRetryBudget(t *testing.T) {
	// A permanent staging fault must not bounce a task forever: each
	// exhausted transfer burns one task attempt, and the task fails for good
	// once MaxRetries is gone.
	cfg := oracleCfg()
	cfg.MaxRetries = 2
	cfg.Resilience = ResilienceConfig{StagingRetries: 1}
	eng, m := testRig(t, 1, cfg)
	task := simpleTask(1, 10, 100)
	task.Inputs = []*File{{Name: "data", SizeBytes: 1 << 20}}
	m.SetStagingFault(func(*Worker, *File) bool { return true })
	eng.At(0, func() { m.Submit(task) })
	eng.Run()
	if task.State != TaskFailed {
		t.Fatalf("task state = %v, want failed", task.State)
	}
	if m.Stats().Failed != 1 || m.Stats().Completed != 0 {
		t.Fatalf("stats = %+v", m.Stats())
	}
	rs := m.Stats().Resilience
	// MaxRetries 2 allows 3 placements; each consumes 1 in-attempt retry
	// before exhausting.
	if rs == nil || rs.StagingFailures != 3 || rs.StagingRetries != 3 {
		t.Fatalf("resilience stats = %+v, want 3 failures / 3 retries", rs)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuarantineTripsAndRecovers(t *testing.T) {
	// Worker 0 fails every transfer; after one exhausted attempt it is
	// quarantined and the remaining work drains through worker 1.
	cfg := oracleCfg()
	cfg.Resilience = ResilienceConfig{QuarantineThreshold: 1, QuarantineProbation: 60}
	eng, m := testRig(t, 2, cfg)
	var bad *Worker
	eng.At(0, func() {
		bad = m.workers[0]
		m.SetStagingFault(func(w *Worker, _ *File) bool { return w == bad })
		for i := 0; i < 4; i++ {
			tk := simpleTask(i, 10, 100)
			tk.Inputs = []*File{{Name: "data", SizeBytes: 1 << 20}}
			m.Submit(tk)
		}
	})
	// Probe mid-run: by t=5 the fault has exhausted at least one attempt on
	// worker 0 but nothing has drained yet (tasks run 10s).
	tripped := false
	eng.At(5, func() { tripped = bad.Quarantined() })
	eng.Run()
	if m.Stats().Completed != 4 {
		t.Fatalf("completed = %d, want 4", m.Stats().Completed)
	}
	rs := m.Stats().Resilience
	if rs == nil || rs.Quarantines < 1 {
		t.Fatalf("quarantines = %+v, want >= 1", rs)
	}
	if !tripped {
		t.Fatal("worker 0 was not quarantined mid-run")
	}
	if bad.Quarantined() {
		t.Fatal("worker 0 still quarantined after drain")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSlowWorkerStretchesRuntime(t *testing.T) {
	cfg := oracleCfg()
	eng, m := testRig(t, 1, cfg)
	task := simpleTask(1, 10, 100)
	eng.At(0, func() {
		m.SlowWorker(m.workers[0], 3)
		m.Submit(task)
	})
	end := eng.Run()
	if end != 30 {
		t.Fatalf("makespan = %v, want 30 (10s task at 3x slowdown)", end)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFinishedAttemptsNotRetained checks that removing an attempt from a
// task or a worker clears the vacated slot. A stale slot past the slice's
// length keeps a finished attempt reachable — and with it the monitor's
// execution state — for as long as the task or worker lives.
func TestFinishedAttemptsNotRetained(t *testing.T) {
	cfg := quickCfg(&alloc.Guess{Fixed: monitor.Resources{Cores: 1, MemoryMB: 200, DiskMB: 100}})
	cfg.Resilience = ResilienceConfig{SpeculationMultiplier: 2}
	eng, m := testRig(t, 2, cfg)
	var tasks []*Task
	eng.At(0, func() {
		m.SlowWorker(m.workers[0], 10)
		for i := 0; i < 16; i++ {
			tasks = append(tasks, simpleTask(i, 10, 100))
		}
		tasks = append(tasks, simpleTask(16, 10, 800)) // killed once, retried whole-node
		for _, tk := range tasks {
			m.Submit(tk)
		}
	})
	eng.Run()
	if got := m.Stats().Completed; got != len(tasks) {
		t.Fatalf("completed = %d, want %d", got, len(tasks))
	}
	if m.Stats().Retries != 1 {
		t.Fatalf("retries = %d, want 1", m.Stats().Retries)
	}
	if rs := m.Stats().Resilience; rs == nil || rs.SpecLaunched == 0 {
		t.Fatalf("no speculative attempts launched: %+v", rs)
	}
	for _, tk := range tasks {
		for i, a := range tk.active[:cap(tk.active)] {
			if a != nil {
				t.Errorf("task %d active slot %d (len %d) still holds an attempt", tk.ID, i, len(tk.active))
			}
		}
	}
	for _, w := range m.workers {
		for i, a := range w.attempts[len(w.attempts):cap(w.attempts)] {
			if a != nil {
				t.Errorf("worker %d attempts slot %d past len %d still holds an attempt", w.Node.ID, len(w.attempts)+i, len(w.attempts))
			}
		}
	}
}
