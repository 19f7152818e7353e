package wq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lfm/internal/alloc"
	"lfm/internal/cluster"
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// TestTreapOrdersAndAggregates drives the treap with a seeded random
// sequence of inserts, removes and in-place value rewrites and checks that
// in-order traversal is sorted, handles resolve, and the subtree aggregates
// match a bottom-up recomputation.
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
		if len(live) > 0 && rng.Float64() < 0.2 {
			// Rewrite one node's values in place, as a re-key that keeps the
			// key does, and re-pull its root path.
			for _, n := range live {
				n.v1, n.vi = rng.Float64()*8, int32(rng.Intn(3))
				tr.repull(n.key)
				break
			}
		} else if len(live) == 0 || rng.Float64() < 0.6 {
			c := rng.Int63n(500)
			if _, ok := live[c]; ok {
				continue
			}
			n := &tnode{
				key: tkey{a: float64(rng.Intn(8)), b: float64(rng.Intn(4)), c: c},
				v1:  rng.Float64() * 8, v2: rng.Float64() * 1000, v3: rng.Float64() * 1000,
				vi: int32(rng.Intn(3)),
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

// deepWorkload builds a backlog much deeper than the four-worker pool over
// four categories, for Auto to relabel on nearly every completion. Every
// ninth deep-cat1 task peaks far above its siblings, so Auto's label for
// the category underestimates it and the task is killed and retried under
// a pinned whole-node decision, mixing pinned entries into the blocked
// sets.
func deepWorkload() []*Task {
	var tasks []*Task
	for i := 0; i < 240; i++ {
		cat := i % 4
		res := monitor.Resources{Cores: 1, MemoryMB: 200 + float64((i*53)%500), DiskMB: 20}
		switch cat {
		case 1:
			res.MemoryMB = 400 + float64(i%5)*10
			if i%9 == 1 {
				res.MemoryMB = 1600
			}
		case 2:
			res.Cores, res.MemoryMB = 2, 1500+float64((i*29)%400)
		}
		tasks = append(tasks, &Task{
			ID:       i,
			Category: fmt.Sprintf("deep-cat%d", cat),
			Spec:     monitor.Proc(sim.Time(5+(i*7)%20), res),
			Inputs: []*File{
				{Name: fmt.Sprintf("env-%d.tar.gz", cat), SizeBytes: 1e8, Cacheable: true},
				{Name: fmt.Sprintf("deep-in-%d.dat", i), SizeBytes: 5e5},
			},
			OutputBytes: 1e5,
		})
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
		"":               diffWorkload,
		"/priority":      func() []*Task { return prioritized(diffWorkload()) },
		"/deep":          deepWorkload,
		"/deep-priority": func() []*Task { return prioritized(deepWorkload()) },
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
					if name == "auto" && strings.HasPrefix(suffix, "/deep") {
						var st Stats
						if err := json.Unmarshal(stIdx, &st); err != nil {
							t.Fatal(err)
						}
						if st.Retries == 0 {
							t.Fatal("deep backlog ran without an exhaustion retry, so no pinned entries")
						}
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

// freshTree builds, from scratch, the treap an index over the currently
// indexed workers holds under the given key.
func freshTree(s *schedState, key func(*Worker) tkey) *tnode {
	var tr treap
	for _, w := range s.m.workers {
		if mw := w.smeta; mw != nil && mw.indexed {
			n := &tnode{w: w, key: key(w)}
			n.setCap(w)
			tr.insert(n)
		}
	}
	return tr.root
}

// sameTree reports where two treaps differ in shape, keys, priorities,
// workers, values or aggregates.
func sameTree(got, want *tnode) error {
	if got == nil || want == nil {
		if got != want {
			return fmt.Errorf("shape differs: got %v, want %v", got, want)
		}
		return nil
	}
	g, w := *got, *want
	g.left, g.right, w.left, w.right = nil, nil, nil, nil
	if g != w {
		return fmt.Errorf("node differs:\n got %+v\nwant %+v", g, w)
	}
	if err := sameTree(got.left, want.left); err != nil {
		return err
	}
	return sameTree(got.right, want.right)
}

// TestLazyAffinityMatchesRebuild drives the worker indexes with seeded
// random allocations, releases, cache adds, quarantine exclude/admit, joins
// and leaves over more cache sets than maxAffinityIndexes, so indexes are
// evicted and their slots reused. After every affinityFor the returned
// index, and every other live index with nothing listed stale, must be node
// for node the index a fresh build over the same pool produces.
func TestLazyAffinityMatchesRebuild(t *testing.T) {
	const sets = maxAffinityIndexes + 8
	req := monitor.Resources{Cores: 1, MemoryMB: 500, DiskMB: 100}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMaster(sim.NewEngine(seed), quickCfg(&alloc.Unmanaged{}))
		s := m.sched
		var files []*File
		for i := 0; i < 16; i++ {
			files = append(files, &File{Name: fmt.Sprintf("f%d", i), SizeBytes: int64(1+rng.Intn(4)) << 20, Cacheable: true})
		}
		var tasks []*Task
		for i := 0; i < sets; i++ {
			// Distinct pairs of files give distinct cache sets.
			a, b := i%len(files), (i/len(files)+1+i)%len(files)
			tasks = append(tasks, &Task{ID: i, Inputs: []*File{files[a], files[b]}})
		}
		held := map[*Worker]int{}
		nextNode := 0
		join := func() {
			m.AddWorker(&cluster.Node{ID: nextNode, Cores: 4, MemoryMB: 4096, DiskMB: 8192})
			nextNode++
		}
		for range 10 {
			join()
		}
		compare := func(ai *affinityIndex) {
			t.Helper()
			want := freshTree(s, func(w *Worker) tkey { return s.affKey(ai, w) })
			if err := sameTree(ai.tr.root, want); err != nil {
				t.Fatalf("seed %d: affinity[%q] differs from a rebuild: %v", seed, ai.key, err)
			}
		}
		for step := 0; step < 1500; step++ {
			w := m.workers[rng.Intn(len(m.workers))]
			switch op := rng.Intn(20); {
			case op < 5:
				if w.running < 4 {
					m.allocCapacity(w, req)
					held[w]++
				}
			case op < 9:
				if held[w] > 0 {
					m.releaseCapacity(w, req)
					held[w]--
				}
			case op < 12:
				if f := files[rng.Intn(len(files))]; !w.cache[f.Name] {
					w.cache[f.Name] = true
					s.cacheAdded(w, f)
				}
			case op < 14:
				if w.quarantined = !w.quarantined; w.quarantined {
					s.exclude(w)
				} else {
					s.admit(w)
				}
			case op == 14:
				if len(m.workers) < 16 {
					join()
				}
			case op == 15:
				if len(m.workers) > 4 {
					m.RemoveWorker(w)
					delete(held, w)
				}
			default:
				compare(s.affinityFor(tasks[rng.Intn(len(tasks))]))
				for _, ai := range s.affList {
					if len(ai.stale) == 0 {
						compare(ai)
					}
				}
			}
			if step%100 == 99 {
				if err := s.check(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		if len(s.affList) != maxAffinityIndexes {
			t.Fatalf("seed %d: %d live affinity indexes, want the cap %d", seed, len(s.affList), maxAffinityIndexes)
		}
		if err := s.check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestIndexUpkeepAllocationFree checks that, once every index is built and
// each worker holds its nodes, an allocate + release + affinityFor cycle
// allocates nothing: nodes are re-keyed in place and stale workers are
// listed on slices that have already grown.
func TestIndexUpkeepAllocationFree(t *testing.T) {
	m := NewMaster(sim.NewEngine(1), quickCfg(&alloc.Unmanaged{}))
	for i := 0; i < 64; i++ {
		m.AddWorker(&cluster.Node{ID: i, Cores: 4, MemoryMB: 4096, DiskMB: 8192})
	}
	s := m.sched
	tk := &Task{Inputs: []*File{{Name: "env.tar.gz", SizeBytes: 1 << 28, Cacheable: true}}}
	other := &Task{Inputs: []*File{{Name: "db.sqlite", SizeBytes: 1 << 20, Cacheable: true}}}
	req := monitor.Resources{Cores: 1, MemoryMB: 500, DiskMB: 100}
	i := 0
	cycle := func() {
		w := m.workers[i%len(m.workers)]
		i++
		m.allocCapacity(w, req)
		s.affinityFor(tk)
		m.releaseCapacity(w, req)
		s.affinityFor(other)
	}
	for range 2 * len(m.workers) {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("index upkeep allocated %v objects per cycle, want 0", n)
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
}

// shrinkOnObserve labels a category's tasks with six cores until its first
// completed observation, and with two after.
type shrinkOnObserve struct{ seen map[string]bool }

func (s *shrinkOnObserve) Name() string { return "shrink" }

func (s *shrinkOnObserve) Next(cat string) alloc.Decision {
	cores := 6.0
	if s.seen[cat] {
		cores = 2
	}
	return alloc.Decision{Request: monitor.Resources{Cores: cores, MemoryMB: 100, DiskMB: 10}}
}

func (s *shrinkOnObserve) Retry(string, int) alloc.Decision { return alloc.Decision{WholeNode: true} }

func (s *shrinkOnObserve) Observe(cat string, rep monitor.Report) {
	if rep.Completed {
		s.seen[cat] = true
	}
}

// TestRelabelPlacesWithoutFreedCapacity covers a label change that reaches
// a round before any worker frees capacity. Two six-core tasks fill two
// eight-core workers and two more block. At t=10 the first two complete,
// shrinking the label to two cores, but their large outputs hold the cores
// until long after a submission at t=12 triggers a round with no dirty
// worker. The blocked pair fits the two free cores of each worker under
// the new label, so both matchers must place them in that round.
func TestRelabelPlacesWithoutFreedCapacity(t *testing.T) {
	run := func(mt Matcher) ([]byte, *Task) {
		cfg := quickCfg(&shrinkOnObserve{seen: map[string]bool{}})
		cfg.Matcher = mt
		eng, m := testRig(t, 2, cfg)
		tr := &Trace{}
		m.SetTrace(tr)
		var big []*Task
		for i := 0; i < 4; i++ {
			tk := simpleTask(i, 10, 50)
			tk.Category = "big"
			tk.OutputBytes = 5e10
			big = append(big, tk)
		}
		eng.At(0, func() {
			for _, tk := range big {
				m.Submit(tk)
			}
		})
		eng.At(12, func() {
			y := simpleTask(4, 10, 50)
			y.Category = "y"
			m.Submit(y)
		})
		eng.Run()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%v matcher: %v", mt, err)
		}
		var b bytes.Buffer
		if err := tr.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes(), big[2]
	}
	idx, third := run(MatcherIndexed)
	scan, _ := run(MatcherScan)
	if !bytes.Equal(idx, scan) {
		t.Fatal("matchers produced different traces")
	}
	if third.StartedAt < 12 || third.StartedAt > 13 {
		t.Fatalf("relabeled task started at %v, want in the t=12 round", third.StartedAt)
	}
}
