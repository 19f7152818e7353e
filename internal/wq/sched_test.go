package wq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"lfm/internal/alloc"
	"lfm/internal/cluster"
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// TestTreapOrdersAndAggregates drives the treap with a seeded random
// op-sequence and checks, after every operation, that in-order traversal is
// sorted, handles resolve, and the subtree aggregates match a bottom-up
// recomputation.
func TestTreapOrdersAndAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tr treap
	live := map[int64]*tnode{}
	verify := func() {
		prev := tkey{a: -1e300}
		n := 0
		tr.each(func(x *tnode) {
			n++
			if !prev.less(x.key) {
				t.Fatalf("in-order traversal not sorted: %v then %v", prev, x.key)
			}
			prev = x.key
		})
		if n != len(live) || tr.len() != len(live) {
			t.Fatalf("treap holds %d (len %d), want %d", n, tr.len(), len(live))
		}
		if err := checkAggregates("test", tr.root); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			c := rng.Int63n(500)
			if _, ok := live[c]; ok {
				continue
			}
			n := &tnode{
				key: tkey{a: float64(rng.Intn(8)), b: float64(rng.Intn(4)), c: c},
				v1:  rng.Float64() * 8, v2: rng.Float64() * 1000, v3: rng.Float64() * 1000,
				vi: rng.Intn(3),
			}
			tr.insert(n)
			live[c] = n
		} else {
			var victim *tnode
			for _, n := range live {
				victim = n
				break
			}
			got := tr.remove(victim.key)
			if got != victim {
				t.Fatalf("remove(%v) = %v, want %v", victim.key, got, victim)
			}
			delete(live, victim.key.c)
		}
		if i%50 == 0 {
			verify()
		}
	}
	verify()
}

// TestTreapFindFitLeftmost checks that findFit returns the smallest-keyed
// accepted node and that pruning never changes the answer.
func TestTreapFindFitLeftmost(t *testing.T) {
	var tr treap
	for c := int64(0); c < 100; c++ {
		tr.insert(&tnode{key: tkey{c: c}, v1: float64(c % 10)})
	}
	for want := 0; want < 10; want++ {
		need := float64(want)
		visits := 0
		n := tr.findFit(
			func(n *tnode) bool { return n.maxV1 >= need },
			func(n *tnode) bool { return n.v1 >= need },
			&visits)
		if n == nil || n.key.c != int64(want) {
			t.Fatalf("findFit(v1>=%d) = %+v, want c=%d", want, n, want)
		}
		if visits > 100 {
			t.Fatalf("findFit visited %d nodes", visits)
		}
	}
	visits := 0
	if n := tr.findFit(
		func(n *tnode) bool { return n.maxV1 >= 10 },
		func(n *tnode) bool { return n.v1 >= 10 },
		&visits); n != nil {
		t.Fatalf("findFit found %+v for impossible demand", n)
	}
	if visits != 0 {
		t.Fatalf("aggregate pruning examined %d candidates for an impossible demand", visits)
	}
}

// diffWorkload builds a deterministic mixed workload exercising blocking,
// retries, cache affinity, and dependencies.
func diffWorkload() []*Task {
	var tasks []*Task
	var prev *Task
	for i := 0; i < 60; i++ {
		cat := fmt.Sprintf("cat%d", i%3)
		tk := &Task{
			ID:       i,
			Category: cat,
			Spec: monitor.Proc(sim.Time(5+(i%7)*3), monitor.Resources{
				Cores: 1 + float64(i%2), MemoryMB: 300 + float64((i*37)%900), DiskMB: 20,
			}),
			Inputs: []*File{
				{Name: "env-" + cat + ".tar.gz", SizeBytes: 2e8, Cacheable: true},
				{Name: fmt.Sprintf("in-%d.dat", i), SizeBytes: 5e5},
			},
			OutputBytes: 1e6,
		}
		if i%11 == 0 && prev != nil {
			tk.DependsOn = []*Task{prev}
		}
		tasks = append(tasks, tk)
		prev = tk
	}
	return tasks
}

// prioritized returns tasks with every fourth one raised to priority 1-3,
// so the matchers must agree on priority order as well as ready order.
func prioritized(tasks []*Task) []*Task {
	for i, tk := range tasks {
		if i%4 == 0 {
			tk.Priority = 1 + (i/4)%3
		}
	}
	return tasks
}

// runMatcher executes a differential workload under one matcher and
// placement policy and returns the trace bytes, the stats JSON, and the
// scheduling counters.
func runMatcher(t *testing.T, mt Matcher, p Placement, s alloc.Strategy, tasks []*Task) ([]byte, []byte, SchedStats) {
	t.Helper()
	eng := sim.NewEngine(3)
	site := cluster.Sites()["ndcrc"]
	site.BatchLatency = 0
	site.Jitter = 0
	cl := cluster.New(eng, site)
	cfg := quickCfg(s)
	cfg.Matcher = mt
	cfg.Placement = p
	m := NewMaster(eng, cfg)
	tr := &Trace{}
	m.SetTrace(tr)
	if err := cl.Provision(4, func(n *cluster.Node) { m.AddWorker(n) }); err != nil {
		t.Fatal(err)
	}
	// Three submission waves create distinct busy periods and re-fill the
	// blocked sets.
	eng.At(0, func() {
		for _, tk := range tasks[:30] {
			m.Submit(tk)
		}
	})
	eng.At(40, func() {
		for _, tk := range tasks[30:45] {
			m.Submit(tk)
		}
	})
	eng.At(80, func() {
		for _, tk := range tasks[45:] {
			m.Submit(tk)
		}
	})
	eng.Run()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%v matcher, %v placement: %v", mt, p, err)
	}
	var tb bytes.Buffer
	if err := tr.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(m.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), sb, *m.SchedStats()
}

// TestMatcherDifferential proves the indexed matcher makes byte-identical
// decisions to the linear scan under every placement policy and several
// strategies, with and without task priorities, and that its counterfactual
// scan-cost counters equal the scan's measured costs for the same rounds.
func TestMatcherDifferential(t *testing.T) {
	policies := []Placement{PlaceCacheAffinity, PlaceFirstFit, PlaceBestFit, PlaceWorstFit}
	strategies := map[string]func() alloc.Strategy{
		"auto":      func() alloc.Strategy { return alloc.NewAuto() },
		"unmanaged": func() alloc.Strategy { return &alloc.Unmanaged{} },
		"oracle": func() alloc.Strategy {
			return &alloc.Oracle{Peaks: map[string]monitor.Resources{
				"cat0": {Cores: 2, MemoryMB: 1200, DiskMB: 40},
				"cat1": {Cores: 2, MemoryMB: 1200, DiskMB: 40},
				"cat2": {Cores: 2, MemoryMB: 1200, DiskMB: 40},
			}, Pad: 0.05}
		},
	}
	inputs := map[string]func() []*Task{
		"":          diffWorkload,
		"/priority": func() []*Task { return prioritized(diffWorkload()) },
	}
	for _, p := range policies {
		for name, mk := range strategies {
			for suffix, tasks := range inputs {
				t.Run(fmt.Sprintf("%v/%s%s", p, name, suffix), func(t *testing.T) {
					trIdx, stIdx, schedIdx := runMatcher(t, MatcherIndexed, p, mk(), tasks())
					trScan, stScan, schedScan := runMatcher(t, MatcherScan, p, mk(), tasks())
					if !bytes.Equal(trIdx, trScan) {
						t.Fatal("matchers produced different traces")
					}
					if !bytes.Equal(stIdx, stScan) {
						t.Fatalf("matchers produced different stats:\n%s\n%s", stIdx, stScan)
					}
					if schedIdx.Passes != schedScan.Passes {
						t.Fatalf("rounds diverge: indexed %d, scan %d", schedIdx.Passes, schedScan.Passes)
					}
					if schedIdx.ScanTasksExamined != schedScan.TasksExamined ||
						schedIdx.ScanCandidatesExamined != schedScan.CandidatesExamined {
						t.Fatalf("counterfactual scan cost %d/%d != measured %d/%d",
							schedIdx.ScanTasksExamined, schedIdx.ScanCandidatesExamined,
							schedScan.TasksExamined, schedScan.CandidatesExamined)
					}
					if schedIdx.CandidatesExamined > schedScan.CandidatesExamined {
						t.Fatalf("indexed matcher examined more candidates (%d) than the scan (%d)",
							schedIdx.CandidatesExamined, schedScan.CandidatesExamined)
					}
				})
			}
		}
	}
}

// TestPriorityOrdering checks that the indexed matcher starts
// higher-priority tasks first, breaking ties by submit order.
func TestPriorityOrdering(t *testing.T) {
	eng, m := testRig(t, 1, quickCfg(&alloc.Unmanaged{}))
	prios := []int{0, 5, 1, 5, 2, 9}
	var order []int
	m.OnTaskDone(func(tk *Task) { order = append(order, tk.ID) })
	eng.At(0, func() {
		for i, p := range prios {
			tk := simpleTask(i, 10, 100)
			tk.Priority = p
			m.Submit(tk)
		}
	})
	eng.Run()
	// Unmanaged takes whole nodes, so the single worker serializes
	// execution in scheduling order.
	want := []int{5, 1, 3, 4, 2, 0}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
	if m.SchedStats().Passes == 0 {
		t.Fatal("no scheduling rounds recorded")
	}
}

// TestIndexedMatcherSkipsHopelessRounds checks the dirty-set effect: with a
// deep backlog, the indexed matcher examines far fewer candidates than the
// scan's queue x workers per round.
func TestIndexedMatcherSkipsHopelessRounds(t *testing.T) {
	eng, m := testRig(t, 2, quickCfg(&alloc.Oracle{Peaks: map[string]monitor.Resources{
		"t": {Cores: 1, MemoryMB: 100, DiskMB: 10}}}))
	eng.At(0, func() {
		for i := 0; i < 400; i++ {
			m.Submit(simpleTask(i, 20, 100))
		}
	})
	eng.Run()
	st := m.SchedStats()
	if st.CandidatesExamined*5 > st.ScanCandidatesExamined {
		t.Fatalf("indexed matcher examined %d candidates, scan equivalent %d: expected >=5x reduction",
			st.CandidatesExamined, st.ScanCandidatesExamined)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
