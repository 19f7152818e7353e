package trace

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"sort"

	"lfm/internal/sim"
)

// timeEps absorbs float rounding when matching simulated timestamps.
const timeEps = 1e-9

// CriticalPath is the chain of phase spans that determined the makespan: the
// contiguous sequence of dep-wait / ready-queue / stage / execute / output
// intervals leading from the start of the run to the last-finishing task.
type CriticalPath struct {
	// Steps are the path's phase spans in time order. They are contiguous and
	// non-overlapping, so their durations sum to End - Start.
	Steps []Span
	// Start and End bound the path.
	Start, End sim.Time
	// Phases aggregates the path by phase kind, longest first. Stage wrapper
	// spans are split into their env-stage / input-stage components.
	Phases []PhaseShare
}

// PhaseShare is one phase kind's share of the critical path.
type PhaseShare struct {
	// Kind is the phase; Duration its summed time on the path; Fraction
	// its share of the path total.
	Kind     Kind
	Duration sim.Time
	Fraction float64
}

// Total is the path's wall-clock extent.
func (cp *CriticalPath) Total() sim.Time { return cp.End - cp.Start }

// Sum adds up the step durations; for a well-formed (contiguous) path it
// equals Total within rounding.
func (cp *CriticalPath) Sum() sim.Time {
	var d sim.Time
	for _, sp := range cp.Steps {
		d += sp.Duration(cp.End)
	}
	return d
}

// index holds the spans and their children for the Perfetto export.
type index struct {
	spans    []Span            // every span, from one Spans call
	children map[SpanID][]Span // parent -> children, creation order
}

func (s *Store) index() *index {
	ix := &index{children: make(map[SpanID][]Span)}
	if s == nil {
		return ix
	}
	ix.spans = s.Spans()
	for _, sp := range ix.spans {
		if sp.Parent != NoSpan {
			ix.children[sp.Parent] = append(ix.children[sp.Parent], sp)
		}
	}
	return ix
}

// phaseKinds are the span kinds that partition a task's lifetime; attempt and
// task wrappers, per-file staging children, and monitor sub-spans overlap
// them and are excluded from the path.
func isPhaseKind(k Kind) bool {
	switch k {
	case KindDepWait, KindReadyQueue, KindStage, KindExecute, KindOutput:
		return true
	}
	return false
}

// walkRef is one entry of the critical path's phase index: a span that
// owner's phase walk reaches. ref > 0 is a dep-wait child of owner, reached
// as itself; ref < 0 is span -ref, a phase reached through its parent
// attempt, a child of owner. IDs fit int32: at 56 bytes a record, 2^31
// spans would take 120 GB.
type walkRef struct{ owner, ref int32 }

// span is the ID of the span the entry reaches.
func (w walkRef) span() SpanID {
	if w.ref < 0 {
		return SpanID(-w.ref)
	}
	return SpanID(w.ref)
}

// phaseIndex lists every span a phase walk reaches, sorted by owner. It
// reads the records and builds no Span.
func (s *Store) phaseIndex() []walkRef {
	kindOf := func(r *record) Kind { return Kind(s.strs.str(r.kind)) }
	// each calls fn with the owners a span's walk entries have, if any.
	each := func(fn func(owner SpanID, ref int32)) {
		id := SpanID(0)
		for _, c := range s.chunks {
			for i := range c {
				id++
				r := &c[i]
				k := kindOf(r)
				if !isPhaseKind(k) {
					continue
				}
				parent := SpanID(s.widen(id, fieldParent, r.parent))
				if k == KindDepWait {
					fn(parent, int32(id))
				}
				if p := s.at(parent); p != nil && kindOf(p) == KindAttempt {
					fn(SpanID(s.widen(parent, fieldParent, p.parent)), -int32(id))
				}
			}
		}
	}
	inStore := func(owner SpanID) bool { return owner > 0 && int(owner) <= s.n }
	n := 0
	each(func(owner SpanID, _ int32) {
		if inStore(owner) {
			n++
		}
	})
	refs := make([]walkRef, 0, n)
	each(func(owner SpanID, ref int32) {
		if inStore(owner) {
			refs = append(refs, walkRef{int32(owner), ref})
		}
	})
	slices.SortFunc(refs, func(a, b walkRef) int {
		return cmp.Or(cmp.Compare(a.owner, b.owner), cmp.Compare(a.ref, b.ref))
	})
	return refs
}

// phases collects one task's phase spans in time order: its dep-wait span,
// then each attempt's ready-queue / stage / execute / output children,
// children in creation order before a stable sort by start. It reorders
// the task's own entries of refs.
func (s *Store) phases(refs []walkRef, task SpanID) []Span {
	i, _ := slices.BinarySearchFunc(refs, int32(task), func(r walkRef, t int32) int { return cmp.Compare(r.owner, t) })
	j := i
	for j < len(refs) && refs[j].owner == int32(task) {
		j++
	}
	// via is the task's child the walk reaches the entry through.
	via := func(w walkRef) SpanID {
		if w.ref > 0 {
			return w.span()
		}
		return SpanID(s.widen(w.span(), fieldParent, s.at(w.span()).parent))
	}
	own := refs[i:j]
	slices.SortFunc(own, func(a, b walkRef) int {
		return cmp.Or(cmp.Compare(via(a), via(b)), cmp.Compare(a.span(), b.span()))
	})
	out := make([]Span, len(own))
	for k, w := range own {
		out[k] = s.Span(w.span())
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// depsInto returns the dependency task spans of a dependent task span, in
// link order. into lists the dep links' indexes sorted by their target.
func (s *Store) depsInto(into []int32, task SpanID) []Span {
	i, _ := slices.BinarySearchFunc(into, task, func(l int32, t SpanID) int { return cmp.Compare(s.links[l].To, t) })
	var deps []Span
	for ; i < len(into) && s.links[into[i]].To == task; i++ {
		deps = append(deps, s.Span(s.links[into[i]].From))
	}
	return deps
}

// CriticalPath walks the completed DAG backwards from the last-finishing task
// and returns the span chain that determined the makespan. It returns nil if
// the store holds no task spans. It reads the records: an index of each
// task's phase spans and of the dependency links by target lets it build
// Spans only for the tasks it visits.
func (s *Store) CriticalPath() *CriticalPath {
	if s == nil {
		return nil
	}
	end := s.EndTime()

	// The path terminus: the task span with the latest end (open spans count
	// as running to the end of the trace). Ties break to the earliest span,
	// keeping the walk deterministic.
	last := NoSpan
	lastEnd := sim.Time(-1)
	id := SpanID(0)
	for _, c := range s.chunks {
		for i := range c {
			id++
			r := &c[i]
			if Kind(s.strs.str(r.kind)) != KindTask {
				continue
			}
			if e := r.start + duration(r.start, r.end, end); e > lastEnd+timeEps {
				lastEnd = e
				last = id
			}
		}
	}
	if last == NoSpan {
		return nil
	}
	refs := s.phaseIndex()
	// into holds the dep links' indexes, int32 like walkRef's IDs.
	var into []int32
	for i, l := range s.links {
		if l.Kind == "dep" {
			into = append(into, int32(i))
		}
	}
	slices.SortStableFunc(into, func(a, b int32) int { return cmp.Compare(s.links[a].To, s.links[b].To) })

	var walked [][]Span // each visited task's phases, last task first
	visited := make(map[SpanID]bool)
	cur := last
	for cur != NoSpan && !visited[cur] {
		visited[cur] = true
		phases := s.phases(refs, cur)

		// The predecessor is the dependency whose completion made this task
		// ready — the one finishing at the dep-wait span's end. A task whose
		// dependencies all finished before it was submitted anchors the path
		// at its own submission instead.
		pred := NoSpan
		var depWaitEnd sim.Time = -1
		for _, p := range phases {
			if p.Kind == KindDepWait && !p.Open() {
				depWaitEnd = p.End
				break
			}
		}
		if deps := s.depsInto(into, cur); len(deps) > 0 && depWaitEnd >= 0 {
			var best Span
			for _, d := range deps {
				e := d.Start + d.Duration(end)
				if pred == NoSpan || e > best.Start+best.Duration(end)+timeEps {
					best, pred = d, d.ID
				}
			}
			predEnd := best.Start + best.Duration(end)
			if predEnd+timeEps < depWaitEnd || predEnd > depWaitEnd+timeEps {
				// The releasing dependency did not finish exactly at ready
				// time (e.g. it completed before this task was submitted):
				// the wait was not caused by it, so the path stops here.
				pred = NoSpan
			}
		}
		if pred != NoSpan {
			// The dep-wait interval is the predecessor's own lifetime; keep
			// only the phases after the hop to avoid double-counting.
			trimmed := phases[:0:0]
			for _, p := range phases {
				if p.Kind != KindDepWait {
					trimmed = append(trimmed, p)
				}
			}
			phases = trimmed
		}
		walked = append(walked, phases)
		cur = pred
	}
	n := 0
	for _, ph := range walked {
		n += len(ph)
	}
	steps := make([]Span, 0, n)
	for i := len(walked) - 1; i >= 0; i-- {
		steps = append(steps, walked[i]...)
	}

	cp := &CriticalPath{Steps: steps, End: lastEnd}
	if len(steps) > 0 {
		cp.Start = steps[0].Start
	}
	cp.Phases = s.pathPhases(cp)
	return cp
}

// pathPhases aggregates the path's spans by kind, splitting stage wrappers
// into their per-file env-stage / input-stage children (any residue — cache
// hits, piggybacking — stays under "stage"). One pass over the records
// finds the path's stage spans' file children, in creation order.
func (s *Store) pathPhases(cp *CriticalPath) []PhaseShare {
	files := make(map[SpanID][]Span)
	for _, sp := range cp.Steps {
		if sp.Kind == KindStage {
			files[sp.ID] = nil
		}
	}
	if len(files) > 0 {
		id := SpanID(0)
		for _, c := range s.chunks {
			for i := range c {
				id++
				r := &c[i]
				if k := Kind(s.strs.str(r.kind)); k != KindStageEnv && k != KindStageInput {
					continue
				}
				parent := SpanID(s.widen(id, fieldParent, r.parent))
				if fs, ok := files[parent]; ok {
					files[parent] = append(fs, s.span(id, r))
				}
			}
		}
	}
	total := cp.Total()
	acc := make(map[Kind]sim.Time)
	for _, sp := range cp.Steps {
		d := sp.Duration(cp.End)
		if sp.Kind == KindStage {
			for _, f := range files[sp.ID] {
				fd := f.Duration(cp.End)
				acc[f.Kind] += fd
				d -= fd
			}
			if d < 0 {
				d = 0
			}
		}
		acc[sp.Kind] += d
	}
	out := make([]PhaseShare, 0, len(acc))
	for k, d := range acc {
		ps := PhaseShare{Kind: k, Duration: d}
		if total > 0 {
			ps.Fraction = float64(d) / float64(total)
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Bucket aggregates where one group's (a category's or a worker's) time went
// across all attempts, separating productive phases from retry waste.
type Bucket struct {
	// Group is the category name or "worker N".
	Group string
	// DepWait and Queue are time waiting on dependencies and in the ready
	// queue; Stage, Exec, and Output are productive attempt phases; Waste is
	// the full duration of attempts that ended exhausted or lost.
	DepWait, Queue, Stage, Exec, Output, Waste sim.Time
	// Attempts counts placement attempts; Wasted counts the unproductive ones.
	Attempts, Wasted int
}

// Total is the bucket's accumulated time across all phases.
func (b Bucket) Total() sim.Time {
	return b.DepWait + b.Queue + b.Stage + b.Exec + b.Output + b.Waste
}

// Bottlenecks aggregates attempt time per group: by task category when
// byWorker is false, by executing worker when true. Buckets are sorted by
// descending total time. It reads the records and builds no Span: the
// phase spans of productive attempts are keyed by their parent attempt,
// so each bucket adds them up attempt by attempt, in creation order.
func (s *Store) Bottlenecks(byWorker bool) []Bucket {
	if s == nil {
		return nil
	}
	end := s.EndTime()
	type groupKey struct {
		category string
		worker   int
	}
	buckets := make(map[groupKey]*Bucket)
	// bucket is the bucket span id falls in, nil for a worker-less span
	// when grouping by worker.
	bucket := func(id SpanID, r *record) *Bucket {
		var k groupKey
		if byWorker {
			if k.worker = s.widen(id, fieldWorker, r.worker); k.worker < 0 {
				return nil
			}
		} else {
			k.category = s.strs.str(r.category)
		}
		b := buckets[k]
		if b == nil {
			b = &Bucket{Group: k.category}
			if byWorker {
				b.Group = fmt.Sprintf("worker %d", k.worker)
			}
			buckets[k] = b
		}
		return b
	}
	kindOf := func(r *record) Kind { return Kind(s.strs.str(r.kind)) }
	productive := func(r *record) bool {
		o := s.strs.str(r.outcome)
		return kindOf(r) == KindAttempt && o != OutcomeExhausted && o != OutcomeLost
	}
	isPhase := func(k Kind) bool {
		return k == KindReadyQueue || k == KindStage || k == KindExecute || k == KindOutput
	}
	n := 0
	for _, c := range s.chunks {
		for i := range c {
			if isPhase(kindOf(&c[i])) {
				n++
			}
		}
	}
	type phaseRef struct{ attempt, phase SpanID }
	phases := make([]phaseRef, 0, n)
	id := SpanID(0)
	for _, c := range s.chunks {
		for i := range c {
			id++
			r := &c[i]
			switch k := kindOf(r); {
			case k == KindDepWait:
				if b := bucket(id, r); b != nil {
					b.DepWait += duration(r.start, r.end, end)
				}
			case k == KindAttempt:
				if b := bucket(id, r); b != nil {
					b.Attempts++
					if !productive(r) {
						b.Wasted++
						b.Waste += duration(r.start, r.end, end)
					}
				}
			case isPhase(k):
				parent := SpanID(s.widen(id, fieldParent, r.parent))
				if p := s.at(parent); p != nil && productive(p) {
					phases = append(phases, phaseRef{parent, id})
				}
			}
		}
	}
	slices.SortStableFunc(phases, func(a, b phaseRef) int { return cmp.Compare(a.attempt, b.attempt) })
	for _, ph := range phases {
		b := bucket(ph.attempt, s.at(ph.attempt))
		if b == nil {
			continue
		}
		r := s.at(ph.phase)
		d := duration(r.start, r.end, end)
		switch kindOf(r) {
		case KindReadyQueue:
			b.Queue += d
		case KindStage:
			b.Stage += d
		case KindExecute:
			b.Exec += d
		case KindOutput:
			b.Output += d
		}
	}
	out := make([]Bucket, 0, len(buckets))
	for _, b := range buckets {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].Group < out[j].Group
	})
	return out
}

// Slowest returns the n longest closed, non-instant spans of the given kinds
// (all kinds when none are given), longest first and, among equal
// durations, in creation order. It reads the records, keeping the n
// longest so far in a heap, and builds a Span only for each it returns.
func (s *Store) Slowest(n int, kinds ...Kind) []Span {
	if s == nil || n <= 0 {
		return nil
	}
	var want map[Kind]bool
	if len(kinds) > 0 {
		want = make(map[Kind]bool, len(kinds))
		for _, k := range kinds {
			want[k] = true
		}
	}
	end := s.EndTime()
	h := &slowHeap{}
	id := SpanID(0)
	for _, c := range s.chunks {
		for i := range c {
			id++
			r := &c[i]
			if want != nil && !want[Kind(s.strs.str(r.kind))] {
				continue
			}
			e := slowEntry{id, duration(r.start, r.end, end)}
			switch {
			case e.dur <= 0:
			case len(*h) < n:
				*h = append(*h, e)
				heap.Fix(h, len(*h)-1)
			case e.ahead((*h)[0]):
				(*h)[0] = e
				heap.Fix(h, 0)
			}
		}
	}
	slices.SortFunc(*h, func(a, b slowEntry) int {
		if a.ahead(b) {
			return -1
		}
		return 1
	})
	out := make([]Span, len(*h))
	for i, e := range *h {
		out[i] = s.span(e.id, s.at(e.id))
	}
	return out
}

// slowEntry is a Slowest candidate: a span and its duration.
type slowEntry struct {
	id  SpanID
	dur sim.Time
}

// ahead reports whether e ranks before o: longer, or as long and older.
func (e slowEntry) ahead(o slowEntry) bool {
	return e.dur > o.dur || e.dur == o.dur && e.id < o.id
}

// slowHeap keeps the candidates ranked furthest back at its root, the
// first to go when a span that ranks ahead of it arrives.
type slowHeap []slowEntry

func (h slowHeap) Len() int           { return len(h) }
func (h slowHeap) Less(i, j int) bool { return h[j].ahead(h[i]) }
func (h slowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slowHeap) Push(x any)        { *h = append(*h, x.(slowEntry)) }
func (h *slowHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
