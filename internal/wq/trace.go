package wq

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"lfm/internal/monitor"
	"lfm/internal/sim"
	"lfm/internal/trace"
)

// EventKind labels one trace event.
type EventKind string

// Trace event kinds.
const (
	EventSubmit       EventKind = "submit"
	EventStart        EventKind = "start"
	EventComplete     EventKind = "complete"
	EventExhausted    EventKind = "exhausted"
	EventFail         EventKind = "fail"
	EventLost         EventKind = "lost"
	EventWorkerJoin   EventKind = "worker-join"
	EventWorkerLeave  EventKind = "worker-leave"
	EventFileTransfer EventKind = "file-transfer"
)

// Event is one timestamped scheduler occurrence, suitable for building
// Gantt charts and utilization timelines from a run.
type Event struct {
	// At is the simulation time of the occurrence.
	At sim.Time `json:"at"`
	// Kind names the occurrence (see EventKind).
	Kind EventKind `json:"kind"`
	// Task is the task ID, or -1 for worker events.
	Task int `json:"task"`
	// Category is the task category, or empty.
	Category string `json:"category,omitempty"`
	// Worker is the worker's node ID, or -1.
	Worker int `json:"worker"`
	// Detail carries kind-specific text (exhausted resource, file name).
	Detail string `json:"detail,omitempty"`
}

// Trace records a run's scheduler activity when attached to a master via
// SetTrace. It is a facade over a trace.Store of hierarchical spans: the
// store is the single source of truth, and the flat Event API of earlier
// versions is derived from it on demand.
type Trace struct {
	st *trace.Store
}

// store returns the backing span store, creating it on first use so a
// zero-valued &Trace{} works. A nil *Trace yields a nil store, which absorbs
// all recording calls.
func (t *Trace) store() *trace.Store {
	if t == nil {
		return nil
	}
	if t.st == nil {
		t.st = trace.NewStore()
	}
	return t.st
}

// Store exposes the underlying span store for critical-path analysis,
// bottleneck reports, and Perfetto/JSON export.
func (t *Trace) Store() *trace.Store { return t.store() }

// SetTrace attaches a trace recorder (nil detaches).
func (m *Master) SetTrace(tr *Trace) { m.trace = tr }

// st is the master's recording handle; nil when tracing is detached.
func (m *Master) st() *trace.Store { return m.trace.store() }

// taskSpans tracks one task's open spans while it moves through the queue.
// The zero value (all NoSpan) marks an untraced task.
type taskSpans struct {
	task    trace.SpanID // whole-lifecycle root span
	depWait trace.SpanID // open until the task first becomes ready
	attempt trace.SpanID // current placement attempt
	phase   trace.SpanID // current phase child of the attempt
	seq     int          // attempt spans created so far
	// failDetail is stamped on the task span when it closes as failed.
	failDetail string
}

// on records the spans a transition opens and closes. Closing NoSpan is a
// no-op, so only the cases that open spans check whether the task or
// attempt is traced.
func (tr *Trace) on(e *event, now sim.Time) {
	st := tr.store()
	if st == nil {
		return
	}
	t, a := e.t, e.a
	if a != nil {
		t = a.t
	}
	switch e.kind {
	case evJoin:
		e.w.span = st.Begin(trace.Span{Kind: trace.KindWorker, Task: -1, Worker: e.w.Node.ID, Start: now})
	case evLeave:
		st.End(e.w.span, now, trace.OutcomeOK, "")
	case evSubmit:
		t.spans.task = st.Begin(trace.Span{
			Kind: trace.KindTask, Task: t.ID, Category: t.Category, Worker: -1, Start: now,
		})
		t.spans.depWait = st.Begin(trace.Span{
			Kind: trace.KindDepWait, Parent: t.spans.task,
			Task: t.ID, Category: t.Category, Worker: -1, Start: now,
		})
		for _, dep := range t.DependsOn {
			st.AddLink(dep.spans.task, t.spans.task, "dep")
		}
	case evDepFail:
		st.End(t.spans.depWait, now, trace.OutcomeFailed, "dependency failed")
		t.spans.failDetail = "dependency failed"
	case evReady:
		// Close the dependency wait (first time only) and open a new
		// attempt with its ready-queue phase.
		if t.spans.task == trace.NoSpan {
			return
		}
		st.End(t.spans.depWait, now, trace.OutcomeOK, "")
		t.spans.seq++
		t.spans.attempt = st.Begin(trace.Span{
			Kind: trace.KindAttempt, Parent: t.spans.task,
			Task: t.ID, Category: t.Category, Worker: -1, Attempt: t.spans.seq, Start: now,
		})
		t.spans.phase = st.Begin(trace.Span{
			Kind: trace.KindReadyQueue, Parent: t.spans.attempt,
			Task: t.ID, Category: t.Category, Worker: -1, Start: now,
		})
	case evPlaced:
		// The pending attempt span moves onto the placement, or a
		// speculative copy opens a fresh one; then staging starts.
		if a.speculative {
			if t.spans.task == trace.NoSpan {
				return
			}
			t.spans.seq++
			a.span = st.Begin(trace.Span{
				Kind: trace.KindAttempt, Parent: t.spans.task,
				Task: t.ID, Category: t.Category, Worker: a.w.Node.ID,
				Attempt: t.spans.seq, Detail: "speculative", Start: now,
			})
		} else {
			if t.spans.attempt == trace.NoSpan {
				return
			}
			a.span, a.phase = t.spans.attempt, t.spans.phase
			t.spans.attempt, t.spans.phase = trace.NoSpan, trace.NoSpan
			st.SetWorker(a.span, a.w.Node.ID)
		}
		nextPhase(st, a, now, trace.OutcomeOK, "", trace.KindStage)
	case evExecStart:
		if a.span != trace.NoSpan {
			nextPhase(st, a, now, trace.OutcomeOK, "", trace.KindExecute)
		}
	case evReport:
		if a.span != trace.NoSpan {
			outcome, detail := verdict(e.rep)
			nextPhase(st, a, now, outcome, detail, trace.KindOutput)
		}
	case evAttemptDone:
		st.End(a.phase, now, trace.OutcomeOK, "")
		outcome, detail := verdict(e.rep)
		st.End(a.span, now, outcome, detail)
	case evLost:
		// The worker vanished while inputs were in flight or mid-execution.
		detail := ""
		if !a.started {
			detail = "staging"
		}
		st.End(a.phase, now, trace.OutcomeLost, detail)
		st.End(a.span, now, trace.OutcomeLost, detail)
	case evCancelled:
		st.End(a.phase, now, trace.OutcomeCancelled, "")
		st.End(a.span, now, trace.OutcomeCancelled, "lost speculation race")
	case evStagingFailed:
		st.End(a.phase, now, trace.OutcomeFailed, e.f.Name)
		st.End(a.span, now, trace.OutcomeFailed, "staging "+e.f.Name)
	case evComplete:
		if t.State == TaskDone {
			st.End(t.spans.task, now, trace.OutcomeDone, "")
		} else {
			st.End(t.spans.task, now, trace.OutcomeFailed, t.spans.failDetail)
		}
	case evSuspect:
		st.Instant(trace.Span{
			Kind: trace.KindSuspect, Task: -1, Worker: e.w.Node.ID, Outcome: trace.OutcomeOK,
			Detail: fmt.Sprintf("silent for %.1fs", float64(e.d)),
		}, now)
	case evQuarantine:
		st.Instant(trace.Span{
			Kind: trace.KindQuarantine, Task: -1, Worker: e.w.Node.ID, Outcome: trace.OutcomeOK,
			Detail: fmt.Sprintf("%d consecutive failures, probation %.0fs", e.w.consecFails, float64(e.d)),
		}, now)
	}
}

// nextPhase closes a's open phase and opens the next one under the attempt.
func nextPhase(st *trace.Store, a *attempt, now sim.Time, outcome, detail string, kind trace.Kind) {
	st.End(a.phase, now, outcome, detail)
	a.phase = st.Begin(trace.Span{
		Kind: kind, Parent: a.span,
		Task: a.t.ID, Category: a.t.Category, Worker: a.w.Node.ID, Start: now,
	})
}

// verdict is the outcome and detail a monitor report closes a span with.
func verdict(rep *monitor.Report) (outcome, detail string) {
	if rep.Completed {
		return trace.OutcomeOK, ""
	}
	return trace.OutcomeExhausted, string(rep.Exhausted)
}

// stageSpan opens the span of a's staging of f under its stage phase, or
// returns NoSpan when a is untraced. Packed environments (anything with an
// unpack step) stage as env-stage, plain data as input-stage.
func (m *Master) stageSpan(a *attempt, f *File) trace.SpanID {
	if a.phase == trace.NoSpan {
		return trace.NoSpan
	}
	kind := trace.KindStageInput
	if f.UnpackTime > 0 {
		kind = trace.KindStageEnv
	}
	return m.st().Begin(trace.Span{
		Kind: kind, Parent: a.phase, Task: a.t.ID, Category: a.t.Category,
		Worker: a.w.Node.ID, Detail: f.Name, Start: m.Eng.Now(),
	})
}

// Events derives the flat, time-ordered scheduler event stream of earlier
// versions from the span store. Each task's events are generated in lifecycle
// order by walking its span tree (submit, then per attempt its transfers,
// start, and termination, then the task's completion or failure) and worker
// lifetimes are generated first, so a stable sort by timestamp reproduces the
// scheduler's emission order even when several steps share an instant.
func (t *Trace) Events() []Event {
	st := t.store()
	if st == nil {
		return nil
	}
	spans := st.Spans()
	children := make(map[trace.SpanID][]trace.Span)
	for _, sp := range spans {
		if sp.Parent != trace.NoSpan {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	var evs []Event
	add := func(at sim.Time, kind EventKind, task int, category string, worker int, detail string) {
		evs = append(evs, Event{
			At: at, Kind: kind, Task: task, Category: category, Worker: worker, Detail: detail,
		})
	}
	for _, sp := range spans {
		if sp.Kind != trace.KindWorker {
			continue
		}
		add(sp.Start, EventWorkerJoin, -1, "", sp.Worker, "")
		if !sp.Open() {
			add(sp.End, EventWorkerLeave, -1, "", sp.Worker, "")
		}
	}
	for _, sp := range spans {
		if sp.Kind != trace.KindTask {
			continue
		}
		add(sp.Start, EventSubmit, sp.Task, sp.Category, -1, "")
		for _, at := range children[sp.ID] {
			if at.Kind != trace.KindAttempt {
				continue
			}
			for _, ph := range children[at.ID] {
				switch ph.Kind {
				case trace.KindStage:
					for _, f := range children[ph.ID] {
						// Only actual transfers count; cache hits and
						// piggybacked copies moved no bytes over the link.
						if (f.Kind == trace.KindStageEnv || f.Kind == trace.KindStageInput) &&
							f.Outcome != trace.OutcomeCacheHit && f.Outcome != trace.OutcomeShared {
							add(f.Start, EventFileTransfer, f.Task, f.Category, f.Worker, f.Detail)
						}
					}
				case trace.KindExecute:
					add(ph.Start, EventStart, ph.Task, ph.Category, ph.Worker, "")
				}
			}
			if !at.Open() {
				switch at.Outcome {
				case trace.OutcomeExhausted:
					add(at.End, EventExhausted, at.Task, at.Category, -1, at.Detail)
				case trace.OutcomeLost:
					add(at.End, EventLost, at.Task, at.Category, at.Worker, at.Detail)
				}
			}
		}
		if !sp.Open() {
			switch sp.Outcome {
			case trace.OutcomeDone:
				add(sp.End, EventComplete, sp.Task, sp.Category, -1, "")
			case trace.OutcomeFailed:
				add(sp.End, EventFail, sp.Task, sp.Category, -1, sp.Detail)
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// WriteJSON emits the derived event stream as a JSON array. Use
// Store().WriteJSON for the full span tree.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Events())
}

// Filter returns the events of one kind.
func (t *Trace) Filter(kind EventKind) []Event {
	var out []Event
	for _, e := range t.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// TaskSpans pairs start and terminal events per task attempt, for Gantt
// rendering. A span with End == -1 never finished (still running or lost).
type TaskSpan struct {
	// Task and Category identify the attempt's task.
	Task     int
	Category string
	// Worker is the node ID the attempt ran on.
	Worker int
	// Start and End bound the attempt; End == -1 means it never finished.
	Start sim.Time
	End   sim.Time
	// Outcome is the terminal event kind (done, retry, failed, ...).
	Outcome EventKind
}

// Spans reconstructs per-attempt spans from the event stream.
func (t *Trace) Spans() []TaskSpan {
	var spans []TaskSpan
	open := map[int]int{} // task -> index into spans of the open span
	for _, e := range t.Events() {
		switch e.Kind {
		case EventStart:
			open[e.Task] = len(spans)
			spans = append(spans, TaskSpan{
				Task: e.Task, Category: e.Category, Worker: e.Worker,
				Start: e.At, End: -1,
			})
		case EventComplete, EventExhausted, EventFail, EventLost:
			if i, ok := open[e.Task]; ok {
				spans[i].End = e.At
				spans[i].Outcome = e.Kind
				delete(open, e.Task)
			}
		}
	}
	return spans
}

// Summary renders one line with per-kind counts.
func (t *Trace) Summary() string {
	counts := map[EventKind]int{}
	evs := t.Events()
	for _, e := range evs {
		counts[e.Kind]++
	}
	return fmt.Sprintf("trace: %d events (%d submits, %d starts, %d completes, "+
		"%d exhausted, %d fails, %d lost, %d worker-joins, %d worker-leaves, %d file-transfers)",
		len(evs), counts[EventSubmit], counts[EventStart], counts[EventComplete],
		counts[EventExhausted], counts[EventFail], counts[EventLost],
		counts[EventWorkerJoin], counts[EventWorkerLeave], counts[EventFileTransfer])
}
