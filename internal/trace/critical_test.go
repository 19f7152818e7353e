package trace

import (
	"cmp"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"lfm/internal/sim"
)

func TestCriticalPathTwoTaskChain(t *testing.T) {
	s := buildTwoTaskStore()
	cp := s.CriticalPath()
	if cp == nil {
		t.Fatal("no critical path")
	}
	if cp.Start != 0 || cp.End != 18 {
		t.Fatalf("path bounds = [%v, %v]", cp.Start, cp.End)
	}
	// Contiguity: the steps partition [0, 18], so durations sum to the total.
	if math.Abs(float64(cp.Sum()-cp.Total())) > 1e-9 {
		t.Fatalf("sum %v != total %v", cp.Sum(), cp.Total())
	}
	for i := 1; i < len(cp.Steps); i++ {
		if cp.Steps[i].Start != cp.Steps[i-1].End {
			t.Fatalf("gap between steps %d and %d: %+v -> %+v",
				i-1, i, cp.Steps[i-1], cp.Steps[i])
		}
	}
	// The walk must hop from B's attempt back through A's full lifecycle and
	// must not include B's dep-wait (it overlaps A entirely).
	wantKinds := []Kind{
		KindDepWait, KindReadyQueue, KindStage, KindExecute, KindOutput, // A
		KindReadyQueue, KindStage, KindExecute, KindOutput, // B
	}
	if len(cp.Steps) != len(wantKinds) {
		t.Fatalf("steps = %d, want %d: %+v", len(cp.Steps), len(wantKinds), cp.Steps)
	}
	for i, k := range wantKinds {
		if cp.Steps[i].Kind != k {
			t.Fatalf("step %d kind = %v, want %v", i, cp.Steps[i].Kind, k)
		}
	}
	if cp.Steps[0].Task != 0 || cp.Steps[len(cp.Steps)-1].Task != 1 {
		t.Fatalf("path tasks: first %d last %d", cp.Steps[0].Task, cp.Steps[len(cp.Steps)-1].Task)
	}
}

func TestCriticalPathPhaseShares(t *testing.T) {
	s := buildTwoTaskStore()
	cp := s.CriticalPath()
	get := func(k Kind) sim.Time {
		for _, p := range cp.Phases {
			if p.Kind == k {
				return p.Duration
			}
		}
		return 0
	}
	// Execute: A 6s + B 5s; queue: 1s + 1s; env staging 2s, input staging 1s;
	// output 1s + 1s; dep-wait 0 (B's was dropped, A's is zero-length).
	if get(KindExecute) != 11 || get(KindReadyQueue) != 2 ||
		get(KindStageEnv) != 2 || get(KindStageInput) != 1 || get(KindOutput) != 2 {
		t.Fatalf("phases = %+v", cp.Phases)
	}
	// Stage wrappers were fully covered by their file children.
	if get(KindStage) != 0 {
		t.Fatalf("stage residue = %v", get(KindStage))
	}
	var frac float64
	for _, p := range cp.Phases {
		frac += p.Fraction
	}
	if math.Abs(frac-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", frac)
	}
	// Longest first.
	for i := 1; i < len(cp.Phases); i++ {
		if cp.Phases[i].Duration > cp.Phases[i-1].Duration {
			t.Fatalf("phases not sorted: %+v", cp.Phases)
		}
	}
}

// A task whose dependency finished before it was submitted anchors the path
// at its own submission rather than walking into the dependency.
func TestCriticalPathStopsAtLateSubmission(t *testing.T) {
	s := NewStore()
	a := s.Begin(Span{Kind: KindTask, Task: 0, Worker: -1, Start: 0})
	aw := s.Begin(Span{Kind: KindDepWait, Parent: a, Task: 0, Worker: -1, Start: 0})
	s.End(aw, 0, OutcomeOK, "")
	at := s.Begin(Span{Kind: KindAttempt, Parent: a, Task: 0, Worker: 0, Start: 0, Attempt: 1})
	ax := s.Begin(Span{Kind: KindExecute, Parent: at, Task: 0, Worker: 0, Start: 0})
	s.End(ax, 5, OutcomeOK, "")
	s.End(at, 5, OutcomeOK, "")
	s.End(a, 5, OutcomeDone, "")

	// B submitted at 20, long after A finished: its dep-wait is instant.
	b := s.Begin(Span{Kind: KindTask, Task: 1, Worker: -1, Start: 20})
	bw := s.Begin(Span{Kind: KindDepWait, Parent: b, Task: 1, Worker: -1, Start: 20})
	s.End(bw, 20, OutcomeOK, "")
	bt := s.Begin(Span{Kind: KindAttempt, Parent: b, Task: 1, Worker: 0, Start: 20, Attempt: 1})
	bx := s.Begin(Span{Kind: KindExecute, Parent: bt, Task: 1, Worker: 0, Start: 20})
	s.End(bx, 30, OutcomeOK, "")
	s.End(bt, 30, OutcomeOK, "")
	s.End(b, 30, OutcomeDone, "")
	s.AddLink(a, b, "dep")

	cp := s.CriticalPath()
	if cp.Start != 20 || cp.End != 30 {
		t.Fatalf("path bounds = [%v, %v], want [20, 30]", cp.Start, cp.End)
	}
	for _, sp := range cp.Steps {
		if sp.Task != 1 {
			t.Fatalf("path crossed into task %d: %+v", sp.Task, cp.Steps)
		}
	}
}

func TestCriticalPathEmptyStore(t *testing.T) {
	if cp := NewStore().CriticalPath(); cp != nil {
		t.Fatalf("path on empty store = %+v", cp)
	}
}

func TestBottlenecksByCategoryAndWorker(t *testing.T) {
	s := buildTwoTaskStore()
	// Add a wasted attempt: task 2 exhausted on worker 1 after 4s.
	c := s.Begin(Span{Kind: KindTask, Task: 2, Category: "analyze", Worker: -1, Start: 0})
	cw := s.Begin(Span{Kind: KindDepWait, Parent: c, Task: 2, Category: "analyze", Worker: -1, Start: 0})
	s.End(cw, 0, OutcomeOK, "")
	ct := s.Begin(Span{Kind: KindAttempt, Parent: c, Task: 2, Category: "analyze", Worker: 1, Start: 0, Attempt: 1})
	s.End(ct, 4, OutcomeExhausted, "memory")
	s.End(c, 4, OutcomeFailed, "retries exhausted")

	byCat := s.Bottlenecks(false)
	var analyze *Bucket
	for i := range byCat {
		if byCat[i].Group == "analyze" {
			analyze = &byCat[i]
		}
	}
	if analyze == nil {
		t.Fatalf("no analyze bucket: %+v", byCat)
	}
	if analyze.Attempts != 2 || analyze.Wasted != 1 || analyze.Waste != 4 {
		t.Fatalf("analyze bucket = %+v", analyze)
	}
	if analyze.Exec != 5 || analyze.Queue != 1 || analyze.Stage != 1 || analyze.Output != 1 {
		t.Fatalf("analyze phases = %+v", analyze)
	}
	if analyze.DepWait != 10 {
		t.Fatalf("analyze dep-wait = %v", analyze.DepWait)
	}

	byWorker := s.Bottlenecks(true)
	var w1 *Bucket
	for i := range byWorker {
		if byWorker[i].Group == "worker 1" {
			w1 = &byWorker[i]
		}
	}
	if w1 == nil || w1.Attempts != 2 || w1.Wasted != 1 {
		t.Fatalf("worker 1 bucket = %+v", w1)
	}
	// Sorted by descending total.
	for i := 1; i < len(byCat); i++ {
		if byCat[i].Total() > byCat[i-1].Total() {
			t.Fatalf("buckets not sorted: %+v", byCat)
		}
	}
}

// referencePath is the critical-path walk over one Spans() copy that
// CriticalPath replaced, kept to check it against.
func referencePath(s *Store) *CriticalPath {
	spans := s.Spans()
	children := make(map[SpanID][]Span)
	for _, sp := range spans {
		if sp.Parent != NoSpan {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	depsInto := make(map[SpanID][]Span)
	for _, l := range s.Links() {
		if l.Kind == "dep" {
			depsInto[l.To] = append(depsInto[l.To], s.Span(l.From))
		}
	}
	phases := func(task SpanID) []Span {
		var out []Span
		for _, c := range children[task] {
			switch {
			case c.Kind == KindDepWait:
				out = append(out, c)
			case c.Kind == KindAttempt:
				for _, p := range children[c.ID] {
					if isPhaseKind(p.Kind) {
						out = append(out, p)
					}
				}
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
		return out
	}
	end := s.EndTime()
	last := NoSpan
	lastEnd := sim.Time(-1)
	for _, sp := range spans {
		if sp.Kind != KindTask {
			continue
		}
		if e := sp.Start + sp.Duration(end); e > lastEnd+timeEps {
			lastEnd, last = e, sp.ID
		}
	}
	if last == NoSpan {
		return nil
	}
	var steps []Span
	visited := make(map[SpanID]bool)
	for cur := last; cur != NoSpan && !visited[cur]; {
		visited[cur] = true
		ph := phases(cur)
		pred := NoSpan
		var depWaitEnd sim.Time = -1
		for _, p := range ph {
			if p.Kind == KindDepWait && !p.Open() {
				depWaitEnd = p.End
				break
			}
		}
		if deps := depsInto[cur]; len(deps) > 0 && depWaitEnd >= 0 {
			var best Span
			for _, d := range deps {
				if e := d.Start + d.Duration(end); pred == NoSpan || e > best.Start+best.Duration(end)+timeEps {
					best, pred = d, d.ID
				}
			}
			if predEnd := best.Start + best.Duration(end); predEnd+timeEps < depWaitEnd || predEnd > depWaitEnd+timeEps {
				pred = NoSpan
			}
		}
		if pred != NoSpan {
			trimmed := ph[:0:0]
			for _, p := range ph {
				if p.Kind != KindDepWait {
					trimmed = append(trimmed, p)
				}
			}
			ph = trimmed
		}
		steps = append(ph, steps...)
		cur = pred
	}
	cp := &CriticalPath{Steps: steps, End: lastEnd}
	if len(steps) > 0 {
		cp.Start = steps[0].Start
	}
	acc := make(map[Kind]sim.Time)
	for _, sp := range cp.Steps {
		d := sp.Duration(cp.End)
		if sp.Kind == KindStage {
			for _, f := range children[sp.ID] {
				if f.Kind == KindStageEnv || f.Kind == KindStageInput {
					fd := f.Duration(cp.End)
					acc[f.Kind] += fd
					d -= fd
				}
			}
			d = max(d, 0)
		}
		acc[sp.Kind] += d
	}
	for k, d := range acc {
		ps := PhaseShare{Kind: k, Duration: d}
		if total := cp.Total(); total > 0 {
			ps.Fraction = float64(d) / float64(total)
		}
		cp.Phases = append(cp.Phases, ps)
	}
	slices.SortFunc(cp.Phases, func(a, b PhaseShare) int {
		return cmp.Or(cmp.Compare(b.Duration, a.Duration), cmp.Compare(a.Kind, b.Kind))
	})
	return cp
}

// buildChainStore records chains of three tasks until the store holds n
// spans. In chain c, task 1 waits on task 0, and task 2 on task 1 and,
// within each group of four chains, on task 2 of chain c-1, so the walk
// hops within a chain and, when the earlier chain finished later, back
// across chains; every 11th chain submits its task 2 after both
// dependencies ended, which stops the walk. Chain `last` runs 1000 s
// longer, so the walk starts in its group, at or after it. Every 4th task
// retries after an exhausted attempt, every 3rd opens its attempts'
// phases in reverse attempt order, and zero-length phases tie at their
// starts; stage phases hold env, input and cache-hit children and execute
// phases the monitor's overhead span and instants.
func buildChainStore(n, last int) *Store {
	s := NewStore()
	s.Begin(Span{Kind: KindWorker, Task: -1, Worker: 0, Start: 0})
	dur := func(i int) sim.Time { return sim.Time(i*7919%1000) / 97 }
	var prev SpanID
	var prevEnd sim.Time
	for c := 0; s.Len() < n; c++ {
		submit := sim.Time(c) / 2
		var dep SpanID
		var depEnd sim.Time
		for j := range 3 {
			id := 3*c + j
			cat := []string{"sim", "reco", "merge"}[j]
			ready := max(submit, depEnd)
			if j == 2 && c%11 == 5 {
				ready = max(depEnd, prevEnd) + 3
				submit = ready
			}
			root := s.Begin(Span{Kind: KindTask, Task: id, Category: cat, Worker: -1, Start: submit})
			if dep != NoSpan {
				s.AddLink(dep, root, "dep")
			}
			if j == 2 && c%4 != 0 {
				s.AddLink(prev, root, "dep")
				ready = max(ready, prevEnd)
			}
			dw := s.Begin(Span{Kind: KindDepWait, Parent: root, Task: id, Category: cat, Worker: -1, Start: submit})
			s.End(dw, ready, OutcomeOK, "")
			tries := 1 + min(1, id%4)
			attempts := make([]SpanID, tries)
			for a := range attempts {
				attempts[a] = s.Begin(Span{Kind: KindAttempt, Parent: root, Task: id, Category: cat, Worker: id % 5, Attempt: a + 1})
			}
			starts := make([]sim.Time, tries)
			clock := ready
			for a := range starts {
				starts[a] = clock
				clock += 4*dur(id+a) + 1
			}
			if c == last {
				clock += 1000
			}
			for k := range attempts {
				a := k
				if id%3 == 0 {
					a = tries - 1 - k
				}
				at := starts[a]
				phase := func(kind Kind, d sim.Time) SpanID {
					p := s.Begin(Span{Kind: kind, Parent: attempts[a], Task: id, Category: cat, Worker: id % 5, Start: at})
					at += d
					s.End(p, at, OutcomeOK, "")
					return p
				}
				phase(KindReadyQueue, dur(id+a)*sim.Time(id%2))
				st := phase(KindStage, dur(id+a+1))
				stStart := at - dur(id+a+1)
				env := s.Begin(Span{Kind: KindStageEnv, Parent: st, Task: id, Worker: id % 5, Start: stStart})
				s.End(env, stStart+dur(id+a+1)/3, OutcomeOK, "env.tar.gz")
				in := s.Begin(Span{Kind: KindStageInput, Parent: st, Task: id, Worker: id % 5, Start: stStart})
				s.End(in, stStart+dur(id+a+1)/5, OutcomeOK, "in.dat")
				s.Instant(Span{Kind: KindStageEnv, Parent: st, Task: id, Worker: id % 5, Outcome: OutcomeCacheHit}, stStart)
				ex := phase(KindExecute, dur(id+a+2))
				if a == tries-1 && c == last {
					s.End(ex, at+1000, OutcomeOK, "")
					at += 1000
				}
				s.SetPolls(ex, id%9)
				ov := s.Begin(Span{Kind: KindLFMOverhead, Parent: ex, Task: id, Worker: id % 5, Start: at})
				s.End(ov, at, OutcomeOK, "")
				s.Instant(Span{Kind: KindProcEvent, Parent: ex, Task: id, Worker: id % 5}, at)
				phase(KindOutput, dur(id+a+3)*sim.Time(a%2))
				outcome := OutcomeOK
				if a < tries-1 {
					outcome = OutcomeExhausted
				}
				s.End(attempts[a], at, outcome, "")
				clock = max(clock, at)
			}
			s.End(root, clock, OutcomeDone, "")
			dep, depEnd = root, clock
			if j == 2 {
				prev, prevEnd = root, clock
			}
		}
	}
	return s
}

// TestCriticalPathMatchesSpans checks that CriticalPath, which reads the
// records, returns exactly what the walk over one Spans() copy returned,
// and allocates at most 1/20 of that copy.
func TestCriticalPathMatchesSpans(t *testing.T) {
	for _, last := range []int{3, 61, 150, 290} {
		s := buildChainStore(20000, last)
		want := referencePath(s)
		got := s.CriticalPath()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chain %d: CriticalPath differs from the walk over Spans():\n%+v\nwant\n%+v", last, got, want)
		}
		if first, end := got.Steps[0].Task/3, got.Steps[len(got.Steps)-1].Task/3; first/4 != last/4 || end < last || end/4 != last/4 {
			t.Fatalf("chain %d: path runs from task %d to task %d", last, got.Steps[0].Task, got.Steps[len(got.Steps)-1].Task)
		}
		spansCopy := uint64(s.Len()) * uint64(unsafe.Sizeof(Span{}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.CriticalPath()
		runtime.ReadMemStats(&after)
		t.Logf("chain %d: %d steps, %d B allocated on %d spans", last, len(got.Steps), after.TotalAlloc-before.TotalAlloc, s.Len())
		if got := after.TotalAlloc - before.TotalAlloc; got > spansCopy/20 {
			t.Fatalf("chain %d: CriticalPath allocated %d B on %d spans, want at most 1/20 of one Spans() copy (%d B)", last, got, s.Len(), spansCopy)
		}
	}
}
