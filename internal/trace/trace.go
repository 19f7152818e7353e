// Package trace is the hierarchical, causally-linked span store behind the
// run observability surface: where the flat event list of earlier revisions
// could answer "what happened", spans answer "why was the makespan what it
// was". Every task carries a tree of phase spans covering its full lifecycle
//
//	task
//	├── dep-wait              submit -> all dependencies satisfied
//	└── attempt (per try)     ready -> attempt terminal
//	    ├── ready-queue       ready -> placed on a worker
//	    ├── stage             placement -> inputs staged
//	    │   └── env-stage / input-stage   per file (or cache-hit instants)
//	    ├── execute           staging done -> monitor report (with its poll count)
//	    │   └── lfm-overhead, proc-event/kill instants
//	    └── output            execution end -> outputs retrieved
//
// and sibling spans record worker lifetimes, pilot-job provisioning, and
// shared-filesystem operations. Causality is explicit: DAG edges are stored
// as links between task spans, so the store can walk the completed graph
// backwards from the last-finishing task and report the critical path that
// determined the makespan (see critical.go), and exporters can draw async
// flows between tasks (see perfetto.go).
//
// Recording is strictly passive: the store never schedules simulation events,
// so an instrumented run is behaviourally identical to an uninstrumented one.
// All mutating methods are nil-receiver-safe, letting instrumented code emit
// unconditionally and pay only a nil check when tracing is off.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"lfm/internal/sim"
)

// SpanID identifies one span in a store. IDs start at 1; NoSpan (0) is the
// absent span, so zero-valued bookkeeping structs are safe by default.
type SpanID int

// NoSpan is the null span ID (no parent, not recorded).
const NoSpan SpanID = 0

// Kind classifies a span. Task-phase kinds partition a task's lifetime;
// the remaining kinds annotate workers, infrastructure, and the monitor.
type Kind string

// Span kinds.
const (
	// Task lifecycle.
	KindTask       Kind = "task"        // whole task: submit -> terminal
	KindDepWait    Kind = "dep-wait"    // submit -> dependencies satisfied
	KindAttempt    Kind = "attempt"     // one placement attempt: ready -> terminal
	KindReadyQueue Kind = "ready-queue" // ready -> placed on a worker
	KindStage      Kind = "stage"       // placement -> all inputs staged
	KindStageEnv   Kind = "env-stage"   // one cacheable (environment) file
	KindStageInput Kind = "input-stage" // one non-cacheable (data) file
	KindExecute    Kind = "execute"     // staging done -> monitor report
	KindOutput     Kind = "output"      // execution end -> outputs retrieved

	// Monitor sub-spans, children of an execute span.
	KindLFMOverhead Kind = "lfm-overhead" // monitor setup before the task runs
	KindProcEvent   Kind = "proc-event"   // instant: one fork/exit measurement
	KindKill        Kind = "kill"         // instant: the monitor killed the task

	// Infrastructure.
	KindWorker    Kind = "worker"    // worker connected -> disconnected
	KindProvision Kind = "provision" // pilot job submitted -> node delivered
	KindFSMeta    Kind = "fs-meta"   // shared-FS metadata batch
	KindFSRead    Kind = "fs-read"   // shared-FS read
	KindFSWrite   Kind = "fs-write"  // shared-FS write

	// Failure domain: injected faults and the master's reactions to them.
	KindChaos      Kind = "chaos-fault" // one injected fault (instant or window)
	KindSuspect    Kind = "suspect"     // instant: heartbeat suspicion fired on a worker
	KindQuarantine Kind = "quarantine"  // worker quarantined -> readmitted
	KindAnomaly    Kind = "anomaly"     // instant: telemetry anomaly detector finding
)

// Span outcomes. Open spans (End < 0) have no outcome yet.
const (
	OutcomeOK        = "ok"        // phase finished normally
	OutcomeDone      = "done"      // task completed successfully
	OutcomeFailed    = "failed"    // task failed for good
	OutcomeExhausted = "exhausted" // attempt killed for exceeding its limits
	OutcomeLost      = "lost"      // attempt lost to a disconnected worker
	OutcomeAborted   = "aborted"   // monitor run aborted before starting
	OutcomeCacheHit  = "cache-hit" // input already on the worker
	OutcomeShared    = "shared"    // piggybacked on an in-flight transfer
	OutcomeCancelled = "cancelled" // speculative attempt lost the result race
)

// Span is one timed interval (or instant, when Start == End) in a run.
type Span struct {
	// ID is the span's store-unique identifier; Parent nests it under
	// another span (0 for roots).
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	// Kind classifies the interval (see the Kind constants).
	Kind Kind `json:"kind"`
	// Task is the task ID, or -1 for non-task spans.
	Task int `json:"task"`
	// Category is the task category, or empty.
	Category string `json:"category,omitempty"`
	// Worker is the executing worker's node ID, or -1.
	Worker int `json:"worker"`
	// Attempt numbers a task's placement attempts from 1.
	Attempt int `json:"attempt,omitempty"`
	// Polls counts the polling measurements the monitor took during an
	// execute span (polls are not spans of their own).
	Polls int `json:"polls,omitempty"`
	// Start is when the interval opened.
	Start sim.Time `json:"start"`
	// End is -1 while the span is open.
	End sim.Time `json:"end"`
	// Outcome labels how the span closed (see the Outcome constants).
	Outcome string `json:"outcome,omitempty"`
	// Detail carries kind-specific text: the staged file name, the exhausted
	// resource kind, the failure reason, the provisioned site.
	Detail string `json:"detail,omitempty"`
}

// Duration is End - Start, treating an open span as running to `end`.
func (sp Span) Duration(end sim.Time) sim.Time { return duration(sp.Start, sp.End, end) }

func duration(start, stop, end sim.Time) sim.Time {
	if stop < 0 {
		if end < start {
			return 0
		}
		return end - start
	}
	return stop - start
}

// Open reports whether the span has not ended.
func (sp Span) Open() bool { return sp.End < 0 }

// Link is one causal edge between spans; Kind "dep" marks a workflow DAG
// dependency from one task span to another.
type Link struct {
	// From and To are the cause and effect spans.
	From SpanID `json:"from"`
	To   SpanID `json:"to"`
	// Kind labels the edge ("dep" for workflow DAG dependencies).
	Kind string `json:"kind"`
}

// chunkSpans is the number of spans in one storage chunk. Recording fills
// one chunk at a time, so growing the store never copies or clears the
// records already held; a chunk is 56 KB.
const chunkSpans = 1024

// record is a span as a chunk stores it. Its ID is its position in the
// store, its integers are int32 (see wideInt) and its strings are indexes
// into the store's string table, so a record holds no pointers: 56 bytes
// that the garbage collector never scans.
type record struct {
	parent, task, worker, attempt, polls int32
	start, end                           sim.Time
	kind, category, outcome, detail      uint32
}

// wideInt in an integer field of a record marks a value that does not fit
// in int32: the store keeps the exact value in its wide map, keyed by span
// and field, so no value is ever narrowed.
const wideInt = math.MinInt32

// intField names a record's integer fields in the wide map.
type intField uint8

const (
	fieldParent intField = iota
	fieldTask
	fieldWorker
	fieldAttempt
	fieldPolls
)

type wideKey struct {
	id    SpanID
	field intField
}

// strField names a record's string fields in the string table's memo.
type strField uint8

const (
	strKind strField = iota
	strCategory
	strOutcome
	strDetail
)

// strTable interns a store's span strings. Index 0 is "", and index i > 0
// is strs[i-1]. The memo remembers the last string interned into each
// record field, so a run of spans that repeat a kind, category or outcome
// looks it up without hashing it.
type strTable struct {
	strs []string
	ids  map[string]uint32
	memo [4]struct {
		s string
		i uint32
	}
}

// index returns v's index, interning it on first use.
func (t *strTable) index(f strField, v string) uint32 {
	if v == "" {
		return 0
	}
	m := &t.memo[f]
	if m.s == v {
		return m.i
	}
	i, ok := t.ids[v]
	if !ok {
		if t.ids == nil {
			t.ids = make(map[string]uint32)
		}
		t.strs = append(t.strs, v)
		i = uint32(len(t.strs))
		t.ids[v] = i
	}
	m.s, m.i = v, i
	return i
}

func (t *strTable) str(i uint32) string {
	if i == 0 {
		return ""
	}
	return t.strs[i-1]
}

// Store is an append-only span store for one run. A nil *Store accepts (and
// discards) all recording calls, so emitters need no tracing-enabled guards.
type Store struct {
	// chunks hold the records of spans 1..n, chunkSpans to a chunk (the
	// last may be partly filled).
	chunks [][]record
	n      int
	strs   strTable
	wide   map[wideKey]int
	links  []Link
}

// NewStore returns an empty span store.
func NewStore() *Store { return &Store{} }

// narrow returns v as a record stores it, keeping a value that does not
// fit in int32 in the wide map.
func (s *Store) narrow(id SpanID, f intField, v int) int32 {
	if v != wideInt && int(int32(v)) == v {
		return int32(v)
	}
	if s.wide == nil {
		s.wide = make(map[wideKey]int)
	}
	s.wide[wideKey{id, f}] = v
	return wideInt
}

// widen is narrow's inverse.
func (s *Store) widen(id SpanID, f intField, v int32) int {
	if v == wideInt {
		return s.wide[wideKey{id, f}]
	}
	return int(v)
}

// add appends a span, assigning the next ID.
func (s *Store) add(sp Span) SpanID {
	s.n++
	id := SpanID(s.n)
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == chunkSpans {
		s.chunks = append(s.chunks, make([]record, 0, chunkSpans))
		last++
	}
	s.chunks[last] = append(s.chunks[last], record{
		parent:   s.narrow(id, fieldParent, int(sp.Parent)),
		task:     s.narrow(id, fieldTask, sp.Task),
		worker:   s.narrow(id, fieldWorker, sp.Worker),
		attempt:  s.narrow(id, fieldAttempt, sp.Attempt),
		polls:    s.narrow(id, fieldPolls, sp.Polls),
		start:    sp.Start,
		end:      sp.End,
		kind:     s.strs.index(strKind, string(sp.Kind)),
		category: s.strs.index(strCategory, sp.Category),
		outcome:  s.strs.index(strOutcome, sp.Outcome),
		detail:   s.strs.index(strDetail, sp.Detail),
	})
	return id
}

// at returns the record of the span with the given ID, or nil for NoSpan,
// unknown IDs and a nil store.
func (s *Store) at(id SpanID) *record {
	if s == nil || id <= 0 || int(id) > s.n {
		return nil
	}
	i := int(id) - 1
	return &s.chunks[i/chunkSpans][i%chunkSpans]
}

// span builds the Span that record r of span id stores.
func (s *Store) span(id SpanID, r *record) Span {
	return Span{
		ID:       id,
		Parent:   SpanID(s.widen(id, fieldParent, r.parent)),
		Kind:     Kind(s.strs.str(r.kind)),
		Task:     s.widen(id, fieldTask, r.task),
		Category: s.strs.str(r.category),
		Worker:   s.widen(id, fieldWorker, r.worker),
		Attempt:  s.widen(id, fieldAttempt, r.attempt),
		Polls:    s.widen(id, fieldPolls, r.polls),
		Start:    r.start,
		End:      r.end,
		Outcome:  s.strs.str(r.outcome),
		Detail:   s.strs.str(r.detail),
	}
}

// Begin records an open span and returns its ID. The caller fills Kind,
// Parent, Task/Category/Worker, Start, and Detail; ID and End are assigned
// here. On a nil store it returns NoSpan.
func (s *Store) Begin(sp Span) SpanID {
	if s == nil {
		return NoSpan
	}
	sp.End = -1
	return s.add(sp)
}

// End closes an open span with an outcome and optional detail. Closing
// NoSpan, an unknown ID, or an already-closed span is a no-op, as is any call
// on a nil store.
func (s *Store) End(id SpanID, at sim.Time, outcome, detail string) {
	r := s.at(id)
	if r == nil || r.end >= 0 {
		return
	}
	r.end = at
	r.outcome = s.strs.index(strOutcome, outcome)
	if detail != "" {
		r.detail = s.strs.index(strDetail, detail)
	}
}

// Instant records a zero-duration span at `at` and returns its ID.
func (s *Store) Instant(sp Span, at sim.Time) SpanID {
	if s == nil {
		return NoSpan
	}
	sp.Start = at
	sp.End = at
	return s.add(sp)
}

// SetWorker stamps the executing worker on a recorded span (the worker is
// unknown when an attempt span opens and learned at placement).
func (s *Store) SetWorker(id SpanID, worker int) {
	if r := s.at(id); r != nil {
		s.reset(id, fieldWorker, &r.worker, worker)
	}
}

// SetPolls stamps a monitored run's poll count on its execute span.
func (s *Store) SetPolls(id SpanID, polls int) {
	if r := s.at(id); r != nil {
		s.reset(id, fieldPolls, &r.polls, polls)
	}
}

// reset stores v in a recorded span's integer field, dropping the wide
// value the field held before.
func (s *Store) reset(id SpanID, f intField, field *int32, v int) {
	if *field == wideInt {
		delete(s.wide, wideKey{id, f})
	}
	*field = s.narrow(id, f, v)
}

// AddLink records a causal edge between two recorded spans; edges touching
// NoSpan are dropped.
func (s *Store) AddLink(from, to SpanID, kind string) {
	if s == nil || from == NoSpan || to == NoSpan {
		return
	}
	s.links = append(s.links, Link{From: from, To: to, Kind: kind})
}

// Len reports the number of recorded spans. Safe on nil (0).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Span returns a recorded span by ID, or a zero Span for NoSpan/unknown IDs.
func (s *Store) Span(id SpanID) Span {
	if r := s.at(id); r != nil {
		return s.span(id, r)
	}
	return Span{Task: -1, Worker: -1}
}

// Spans returns the recorded spans in creation order, as a fresh
// exact-length slice built from the records on every call; the store keeps
// no copy, so later recording does not show in a slice already returned.
// A store that has recorded nothing returns nil, unless ReadJSON loaded it
// from an empty span list.
func (s *Store) Spans() []Span {
	if s == nil || s.chunks == nil {
		return nil
	}
	spans := make([]Span, s.n)
	for i := range spans {
		spans[i] = s.span(SpanID(i+1), &s.chunks[i/chunkSpans][i%chunkSpans])
	}
	return spans
}

// Links returns the recorded causal edges. The slice is shared with the
// store and must not be mutated.
func (s *Store) Links() []Link {
	if s == nil {
		return nil
	}
	return s.links
}

// EndTime reports the latest timestamp recorded in any span, the trace's
// notion of "end of run" used to clip still-open spans. It reads the
// records, so it builds no []Span.
func (s *Store) EndTime() sim.Time {
	var end sim.Time
	if s == nil {
		return end
	}
	for _, c := range s.chunks {
		for _, r := range c {
			if r.start > end {
				end = r.start
			}
			if r.end > end {
				end = r.end
			}
		}
	}
	return end
}

// Children returns the direct children of a span, in creation order. It
// reads the records and builds a Span only for each child.
func (s *Store) Children(id SpanID) []Span {
	if s == nil {
		return nil
	}
	var out []Span
	child := SpanID(0)
	for _, c := range s.chunks {
		for i := range c {
			child++
			if SpanID(s.widen(child, fieldParent, c[i].parent)) == id {
				out = append(out, s.span(child, &c[i]))
			}
		}
	}
	return out
}

// storeJSON is the on-disk format read back by cmd/lfmtrace.
type storeJSON struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Spans   []Span `json:"spans"`
	Links   []Link `json:"links,omitempty"`
}

const (
	formatName    = "lfm-trace"
	formatVersion = 1
)

// WriteJSON persists the store (spans + causal links) as JSON.
func (s *Store) WriteJSON(w io.Writer) error {
	doc := storeJSON{Format: formatName, Version: formatVersion}
	if s != nil {
		doc.Spans = s.Spans()
		doc.Links = s.links
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// ReadJSON loads a store previously saved with WriteJSON.
func ReadJSON(r io.Reader) (*Store, error) {
	var doc storeJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if doc.Format != formatName {
		return nil, fmt.Errorf("trace: not an %s file (format %q)", formatName, doc.Format)
	}
	if doc.Version != formatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", doc.Version)
	}
	st := &Store{links: doc.Links}
	if doc.Spans != nil {
		st.chunks = [][]record{} // so an empty list writes back as one
	}
	for i, sp := range doc.Spans {
		if int(sp.ID) != i+1 {
			return nil, fmt.Errorf("trace: span %d has ID %d, want %d", i, sp.ID, i+1)
		}
		st.add(sp)
	}
	for _, l := range st.links {
		if l.From <= 0 || int(l.From) > st.n || l.To <= 0 || int(l.To) > st.n {
			return nil, fmt.Errorf("trace: link %d->%d references unknown spans", l.From, l.To)
		}
	}
	return st, nil
}
