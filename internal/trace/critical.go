package trace

import (
	"fmt"
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

// index holds the lookups a path walk needs.
type index struct {
	children map[SpanID][]Span // parent -> children, creation order
	depsInto map[SpanID][]Span // dependent task span -> dependency task spans
}

func (s *Store) index() *index {
	ix := &index{
		children: make(map[SpanID][]Span),
		depsInto: make(map[SpanID][]Span),
	}
	if s == nil {
		return ix
	}
	for _, sp := range s.Spans() {
		if sp.Parent != NoSpan {
			ix.children[sp.Parent] = append(ix.children[sp.Parent], sp)
		}
	}
	for _, l := range s.links {
		if l.Kind == "dep" {
			ix.depsInto[l.To] = append(ix.depsInto[l.To], s.Span(l.From))
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

// phases collects one task's phase spans in time order: the dep-wait span,
// then each attempt's ready-queue / stage / execute / output children.
func (ix *index) phases(task SpanID) []Span {
	var out []Span
	for _, c := range ix.children[task] {
		switch {
		case c.Kind == KindDepWait:
			out = append(out, c)
		case c.Kind == KindAttempt:
			for _, p := range ix.children[c.ID] {
				if isPhaseKind(p.Kind) {
					out = append(out, p)
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// CriticalPath walks the completed DAG backwards from the last-finishing task
// and returns the span chain that determined the makespan. It returns nil if
// the store holds no task spans.
func (s *Store) CriticalPath() *CriticalPath {
	if s == nil {
		return nil
	}
	ix := s.index()
	end := s.EndTime()

	// The path terminus: the task span with the latest end (open spans count
	// as running to the end of the trace). Ties break to the earliest span,
	// keeping the walk deterministic.
	last := NoSpan
	lastEnd := sim.Time(-1)
	for _, sp := range s.Spans() {
		if sp.Kind != KindTask {
			continue
		}
		e := sp.Start + sp.Duration(end)
		if e > lastEnd+timeEps {
			lastEnd = e
			last = sp.ID
		}
	}
	if last == NoSpan {
		return nil
	}

	var steps []Span
	visited := make(map[SpanID]bool)
	cur := last
	for cur != NoSpan && !visited[cur] {
		visited[cur] = true
		phases := ix.phases(cur)

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
		if deps := ix.depsInto[cur]; len(deps) > 0 && depWaitEnd >= 0 {
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
		// Prepend this task's phases (the walk runs backwards).
		steps = append(phases, steps...)
		cur = pred
	}

	cp := &CriticalPath{Steps: steps, End: lastEnd}
	if len(steps) > 0 {
		cp.Start = steps[0].Start
	}
	cp.Phases = s.pathPhases(cp, ix)
	return cp
}

// pathPhases aggregates the path's spans by kind, splitting stage wrappers
// into their per-file env-stage / input-stage children (any residue — cache
// hits, piggybacking — stays under "stage").
func (s *Store) pathPhases(cp *CriticalPath, ix *index) []PhaseShare {
	total := cp.Total()
	acc := make(map[Kind]sim.Time)
	for _, sp := range cp.Steps {
		d := sp.Duration(cp.End)
		if sp.Kind == KindStage {
			for _, f := range ix.children[sp.ID] {
				if f.Kind == KindStageEnv || f.Kind == KindStageInput {
					fd := f.Duration(cp.End)
					acc[f.Kind] += fd
					d -= fd
				}
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
// descending total time.
func (s *Store) Bottlenecks(byWorker bool) []Bucket {
	if s == nil {
		return nil
	}
	ix := s.index()
	end := s.EndTime()
	buckets := make(map[string]*Bucket)
	get := func(group string) *Bucket {
		b := buckets[group]
		if b == nil {
			b = &Bucket{Group: group}
			buckets[group] = b
		}
		return b
	}
	groupOf := func(sp Span) (string, bool) {
		if byWorker {
			if sp.Worker < 0 {
				return "", false
			}
			return fmt.Sprintf("worker %d", sp.Worker), true
		}
		return sp.Category, true
	}
	for _, sp := range s.Spans() {
		switch sp.Kind {
		case KindDepWait:
			if g, ok := groupOf(sp); ok {
				get(g).DepWait += sp.Duration(end)
			}
		case KindAttempt:
			g, ok := groupOf(sp)
			if !ok {
				continue
			}
			b := get(g)
			b.Attempts++
			if sp.Outcome == OutcomeExhausted || sp.Outcome == OutcomeLost {
				b.Wasted++
				b.Waste += sp.Duration(end)
				continue
			}
			for _, p := range ix.children[sp.ID] {
				d := p.Duration(end)
				switch p.Kind {
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
// (all kinds when none are given), longest first.
func (s *Store) Slowest(n int, kinds ...Kind) []Span {
	if s == nil || n <= 0 {
		return nil
	}
	want := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	end := s.EndTime()
	var out []Span
	for _, sp := range s.Spans() {
		if len(want) > 0 && !want[sp.Kind] {
			continue
		}
		if sp.Duration(end) <= 0 {
			continue
		}
		out = append(out, sp)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Duration(end) > out[j].Duration(end)
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
