package wq

import (
	"testing"

	"lfm/internal/alloc"
	"lfm/internal/cluster"
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// TestCancelledLoserStillLandsCacheForWaiter cancels a speculative copy
// while its transfer of a cacheable input is in flight and another task is
// piggybacked on that transfer. The file must still land in the worker's
// cache, the waiter must resume exactly once, and the cancelled copy must
// never start executing nor give its allocation back twice.
func TestCancelledLoserStillLandsCacheForWaiter(t *testing.T) {
	for _, mt := range []Matcher{MatcherIndexed, MatcherScan} {
		t.Run(mt.String(), func(t *testing.T) { cancelledLoserCase(t, mt) })
	}
}

func cancelledLoserCase(t *testing.T, mt Matcher) {
	eng := sim.NewEngine(1)
	site := cluster.Sites()["ndcrc"]
	site.BatchLatency = 0
	site.Jitter = 0
	cl := cluster.New(eng, site)
	cfg := quickCfg(&alloc.Oracle{Peaks: map[string]monitor.Resources{
		"t": {Cores: 1, MemoryMB: 100, DiskMB: 10},
		"v": {Cores: float64(site.CoresPerNode - 1), MemoryMB: 100, DiskMB: 10},
	}})
	cfg.Matcher = mt
	m := NewMaster(eng, cfg)
	tr := &Trace{}
	m.SetTrace(tr)
	provision := func() {
		if err := cl.Provision(1, func(n *cluster.Node) { m.AddWorker(n) }); err != nil {
			t.Fatal(err)
		}
	}
	env := &File{Name: "env.tar", SizeBytes: 10e9, Cacheable: true} // 8s on the link
	// v fills the first worker but for the core the racing task takes, so
	// the waiter can only be placed beside the speculative copy.
	v := &Task{ID: 1, Category: "v", Spec: monitor.Proc(300, monitor.Resources{Cores: 1, MemoryMB: 100, DiskMB: 10})}
	task := simpleTask(2, 30, 100)
	task.Inputs = []*File{env}
	waiter := simpleTask(3, 5, 100)
	waiter.Inputs = []*File{env}

	eng.At(0, func() {
		provision()
		m.Submit(v)
		m.Submit(task)
	})
	eng.At(1, provision)
	var orig, loser *attempt
	var w1, w2 *Worker
	eng.At(35, func() {
		w1, w2 = m.workers[0], m.workers[1]
		orig = task.active[0]
		if !orig.started || orig.w != w1 {
			t.Fatalf("original attempt not executing on the first worker at t=35")
		}
		m.speculate(orig)
		if len(task.active) != 2 || task.active[1].w != w2 {
			t.Fatalf("speculative copy not placed on the second worker")
		}
		loser = task.active[1]
	})
	eng.At(36, func() { m.Submit(waiter) })
	eng.At(37, func() {
		if got := len(w2.staging[env.Name]); got != 1 {
			t.Fatalf("%d attempts piggybacked on the copy's transfer, want 1", got)
		}
	})
	eng.At(47, func() {
		// The original started at t=16.3 once env had crossed the link
		// and been written, and finished at t=46.3; the copy's transfer,
		// begun at t=35, lands at t=51.3. So the copy lost mid-transfer.
		if task.State != TaskDone || !loser.done {
			t.Fatalf("original not done or copy not cancelled by t=47 (task %v)", task.State)
		}
		if _, inflight := w2.staging[env.Name]; !inflight || w2.cache[env.Name] {
			t.Fatalf("env no longer in flight to the second worker at t=47")
		}
		if w2.running != 1 {
			t.Fatalf("second worker accounts %d attempts, want the waiter's alone", w2.running)
		}
	})
	eng.Run()

	if !w2.cache[env.Name] {
		t.Fatal("env never landed in the second worker's cache")
	}
	if _, inflight := w2.staging[env.Name]; inflight {
		t.Fatal("env still listed in flight after the run")
	}
	if loser.started || loser.exec != nil {
		t.Fatal("the cancelled copy started executing")
	}
	starts := map[int]int{}
	for _, ev := range tr.Events() {
		if ev.Kind == EventStart {
			starts[ev.Task]++
		}
	}
	if starts[task.ID] != 1 || starts[waiter.ID] != 1 {
		t.Fatalf("execution starts per task = %v, want one each for tasks %d and %d", starts, task.ID, waiter.ID)
	}
	if waiter.State != TaskDone || waiter.Attempts != 1 {
		t.Fatalf("waiter state %v after %d attempts", waiter.State, waiter.Attempts)
	}
	rs := m.Stats().Resilience
	if rs == nil || rs.SpecLaunched != 1 || rs.SpecCancelled != 1 || rs.SpecWins != 0 {
		t.Fatalf("speculation accounting = %+v, want one launched and cancelled", rs)
	}
	for _, w := range []*Worker{w1, w2} {
		if w.running != 0 || w.usedCores != 0 || w.usedMemMB != 0 || w.usedDiskMB != 0 {
			t.Fatalf("worker %d ends with %d running, %v cores, %v MB, %v MB disk",
				w.Node.ID, w.running, w.usedCores, w.usedMemMB, w.usedDiskMB)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
