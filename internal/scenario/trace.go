package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"lfm/internal/artifact"
	"lfm/internal/core"
	"lfm/internal/monitor"
	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// The versioned trace-record format: a JSONL capture of everything a run
// consumed from the outside world — the serializable config (pool, strategy,
// seeds, resilience, full chaos schedule), the complete task definitions
// (specs, inputs, dependencies, priorities), and for open-loop runs the raw
// inter-arrival gaps each tenant's process drew plus the exact task-offer
// order. Replay rebuilds the run from the trace alone, with no reference to
// the generator that produced it, and is byte-identical to the recording
// run (see DESIGN.md §14 for the determinism argument).
//
// The container is framed by internal/artifact (see DESIGN.md §14): every
// line is one envelope object {"kind": "...", "<kind>": {...}}. The first
// line is the header, the last the footer; files, tasks, and per-tenant
// arrival streams sit between. Readers accept any version up to
// TraceVersion (forward compatibility: new versions may add line kinds or
// fields, which old traces simply lack) and refuse newer versions with a
// typed *artifact.Error rather than misreading them.

// TraceFormat and TraceVersion identify the trace container. Bump
// TraceVersion when the schema changes shape; never reuse a version.
const (
	TraceFormat  = "lfm-scenario-trace"
	TraceVersion = 1
)

// DigestMismatch is the *artifact.Error reason Verify reports when the
// replayed run did not reproduce the recorded outcome digest.
const DigestMismatch = "digest-mismatch"

var traceFrame = artifact.Frame{Format: TraceFormat, Version: TraceVersion}

// TraceHeader is the first line: the format tag, the serializable run
// configuration, and the counts the footer re-asserts.
type TraceHeader struct {
	artifact.Header
	// Scenario is the registry name of the recorded scenario, empty for
	// ad-hoc recordings.
	Scenario string `json:"scenario,omitempty"`
	// Workload is the generated workload's display name.
	Workload string `json:"workload"`
	// Config is the behavioural run configuration, including the full chaos
	// schedule — replay re-injects the same faults (and the same
	// tenant-stampede gap compression) at the same times.
	Config core.ScenarioConfig `json:"config"`
	// Serving is the open-loop layer's scalar knobs (arrival processes are
	// replaced by the recorded gap streams); nil for batch runs.
	Serving *ServingShape `json:"serving,omitempty"`
	// Guess and OraclePeaks reproduce the workload's strategy knowledge.
	Guess       monitor.Resources            `json:"guess"`
	OraclePeaks map[string]monitor.Resources `json:"oracle_peaks,omitempty"`
	// Tasks and Files are the expected line counts of each kind.
	Tasks int `json:"tasks"`
	Files int `json:"files"`
}

// TraceFileEntry is one unique input file, keyed by name; tasks reference
// files by name and replay rebuilds exactly one *wq.File per entry, so the
// pointer-sharing structure (shared cacheable environments) survives the
// round trip.
type TraceFileEntry struct {
	Name       string   `json:"name"`
	SizeBytes  int64    `json:"size"`
	Cacheable  bool     `json:"cacheable,omitempty"`
	UnpackTime sim.Time `json:"unpack,omitempty"`
}

// TracePhase is one usage phase of a recorded process spec.
type TracePhase struct {
	Duration sim.Time `json:"d"`
	Cores    float64  `json:"c,omitempty"`
	MemoryMB float64  `json:"m,omitempty"`
	DiskMB   float64  `json:"k,omitempty"`
}

// TraceChild is one forked child process of a recorded spec.
type TraceChild struct {
	StartOffset sim.Time  `json:"off"`
	Proc        TraceProc `json:"proc"`
}

// TraceProc mirrors monitor.ProcSpec: the phase staircase plus children.
type TraceProc struct {
	Phases   []TracePhase `json:"phases"`
	Children []TraceChild `json:"children,omitempty"`
}

func encodeProc(s monitor.ProcSpec) TraceProc {
	var p TraceProc
	for _, ph := range s.Phases {
		p.Phases = append(p.Phases, TracePhase{
			Duration: ph.Duration, Cores: ph.Usage.Cores,
			MemoryMB: ph.Usage.MemoryMB, DiskMB: ph.Usage.DiskMB,
		})
	}
	for _, c := range s.Children {
		p.Children = append(p.Children, TraceChild{
			StartOffset: c.StartOffset, Proc: encodeProc(c.Spec),
		})
	}
	return p
}

func decodeProc(p TraceProc) monitor.ProcSpec {
	var s monitor.ProcSpec
	for _, ph := range p.Phases {
		s.Phases = append(s.Phases, monitor.Phase{
			Duration: ph.Duration,
			Usage: monitor.Resources{
				Cores: ph.Cores, MemoryMB: ph.MemoryMB, DiskMB: ph.DiskMB,
			},
		})
	}
	for _, c := range p.Children {
		s.Children = append(s.Children, monitor.ChildSpec{
			StartOffset: c.StartOffset, Spec: decodeProc(c.Proc),
		})
	}
	return s
}

// TraceTask is one task definition: everything the master is handed at
// submit time. Priority is the post-admission value (the serving frontend
// stamps tenant priority on accept; re-stamping on replay is idempotent).
type TraceTask struct {
	ID          int       `json:"id"`
	Category    string    `json:"cat"`
	Priority    int       `json:"pri,omitempty"`
	Spec        TraceProc `json:"spec"`
	Inputs      []string  `json:"inputs,omitempty"`
	OutputBytes int64     `json:"out,omitempty"`
	Deps        []int     `json:"deps,omitempty"`
}

// TraceArrivals is one tenant's recorded stream: the raw inter-arrival gaps
// its Arrival process returned (pre stampede compression — replay re-applies
// the schedule's compression identically) and the task IDs it offered, in
// offer order.
type TraceArrivals struct {
	Tenant int        `json:"tenant"`
	Gaps   []sim.Time `json:"gaps"`
	Offers []int      `json:"offers,omitempty"`
}

// TraceFooter closes the trace: expected counts plus the outcome digest the
// recording run produced. Replay recomputes the digest and Verify compares.
type TraceFooter struct {
	Tasks    int    `json:"tasks"`
	Arrivals int    `json:"arrivals"`
	Digest   string `json:"digest"`
}

// OutcomeDigest fingerprints a run: a SHA-256 over the deterministic
// unified summary plus every task's terminal state and lifecycle
// timestamps (full float64 precision). Two runs with equal digests made the
// same placements at the same times and produced the same accounting.
func OutcomeDigest(out *core.Outcome, tasks []*wq.Task) (string, error) {
	h := sha256.New()
	if err := out.WriteSummaryJSON(h); err != nil {
		return "", err
	}
	byID := append([]*wq.Task(nil), tasks...)
	sort.Slice(byID, func(i, j int) bool { return byID[i].ID < byID[j].ID })
	for _, t := range byID {
		fmt.Fprintf(h, "%d %d %d %.17g %.17g %.17g\n",
			t.ID, t.State, t.Attempts,
			float64(t.SubmittedAt), float64(t.StartedAt), float64(t.FinishedAt))
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// recArrival wraps a live arrival process and records the raw gaps it
// returns. The wrapper draws nothing itself, so the inner process's RNG
// stream is untouched.
type recArrival struct {
	inner workloads.Arrival
	gaps  []sim.Time
}

func (a *recArrival) Name() string    { return a.inner.Name() }
func (a *recArrival) Validate() error { return a.inner.Validate() }

func (a *recArrival) Next(now sim.Time, rng *sim.RNG) sim.Time {
	g := a.inner.Next(now, rng)
	if g >= 0 {
		a.gaps = append(a.gaps, g)
	}
	return g
}

// Record executes the scenario at the seed exactly as Run does, but
// captures the run as a trace: tenant arrivals are wrapped to record their
// raw gaps, and explicit shared-cursor feeds (behaviourally identical to
// core's implicit wiring) record each tenant's offer order. It returns the
// evaluated result and the encoded trace. The optional tr records the
// scheduler event stream of the recording run (tests byte-compare it
// against the replay's).
func (s *Scenario) Record(seed int64, tr *wq.Trace) (*Result, []byte, error) {
	spec, err := s.Instantiate(seed)
	if err != nil {
		return nil, nil, err
	}
	var recs []*recArrival
	var offers [][]int
	out, err := spec.Config.RunScenario(spec.Workload, func(cfg *core.RunConfig) {
		cfg.Trace = tr
		if spec.Serving == nil {
			return
		}
		n := len(spec.Serving.Tenants)
		offers = make([][]int, n)
		feeds := make([]func() *wq.Task, n)
		cursor := 0
		for i := 0; i < n; i++ {
			i := i
			feeds[i] = func() *wq.Task {
				if cursor >= len(spec.Workload.Tasks) {
					return nil
				}
				t := spec.Workload.Tasks[cursor]
				cursor++
				offers[i] = append(offers[i], t.ID)
				return t
			}
		}
		sc := spec.Serving.config(feeds)
		for i := range sc.Tenants {
			ra := &recArrival{inner: sc.Tenants[i].Arrival}
			recs = append(recs, ra)
			sc.Tenants[i].Arrival = ra
		}
		cfg.Serving = sc
	})
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	res := s.evaluate(spec, out)
	data, err := encodeTrace(s.Name, spec, out, recs, offers)
	if err != nil {
		return nil, nil, err
	}
	return res, data, nil
}

// encodeTrace serializes the finished recording run.
func encodeTrace(name string, spec *Spec, out *core.Outcome, recs []*recArrival, offers [][]int) ([]byte, error) {
	w := spec.Workload
	tr := &Trace{}

	// Unique file table, in first-reference order.
	seen := map[string]bool{}
	for _, t := range w.Tasks {
		for _, f := range t.Inputs {
			if seen[f.Name] {
				continue
			}
			seen[f.Name] = true
			tr.Files = append(tr.Files, &TraceFileEntry{
				Name: f.Name, SizeBytes: f.SizeBytes,
				Cacheable: f.Cacheable, UnpackTime: f.UnpackTime,
			})
		}
	}

	var shape *ServingShape
	if spec.Serving != nil {
		cp := *spec.Serving
		cp.Tenants = append([]TenantShape(nil), spec.Serving.Tenants...)
		shape = &cp
	}
	tr.Header = TraceHeader{
		Header:   traceFrame.Header(),
		Scenario: name, Workload: w.Name,
		Config: spec.Config, Serving: shape,
		Guess: w.Guess, OraclePeaks: w.OraclePeaks,
		Tasks: len(w.Tasks), Files: len(tr.Files),
	}
	for _, t := range w.Tasks {
		tt := &TraceTask{
			ID: t.ID, Category: t.Category, Priority: t.Priority,
			Spec: encodeProc(t.Spec), OutputBytes: t.OutputBytes,
		}
		for _, f := range t.Inputs {
			tt.Inputs = append(tt.Inputs, f.Name)
		}
		for _, d := range t.DependsOn {
			tt.Deps = append(tt.Deps, d.ID)
		}
		tr.Tasks = append(tr.Tasks, tt)
	}
	for i, ra := range recs {
		tr.Arrivals = append(tr.Arrivals, &TraceArrivals{
			Tenant: i, Gaps: ra.gaps, Offers: offers[i],
		})
	}
	digest, err := OutcomeDigest(out, w.Tasks)
	if err != nil {
		return nil, err
	}
	tr.Footer = TraceFooter{Tasks: len(w.Tasks), Arrivals: len(recs), Digest: digest}
	return tr.Encode()
}

// Trace is a parsed scenario trace, ready to be materialized into a
// replay.
type Trace struct {
	Header   TraceHeader
	Files    []*TraceFileEntry
	Tasks    []*TraceTask
	Arrivals []*TraceArrivals
	Footer   TraceFooter
}

// Encode serializes the trace; ReadTrace of the result reproduces it.
func (tr *Trace) Encode() ([]byte, error) {
	var buf bytes.Buffer
	w := traceFrame.NewWriter(&buf)
	w.Put("header", &tr.Header)
	for _, f := range tr.Files {
		w.Put("file", f)
	}
	for _, t := range tr.Tasks {
		w.Put("task", t)
	}
	for _, a := range tr.Arrivals {
		w.Put("arrivals", a)
	}
	w.Put("footer", &tr.Footer)
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadTrace parses and validates the container; every failure is a typed
// *artifact.Error.
func ReadTrace(data []byte) (*Trace, error) {
	tr := &Trace{}
	err := traceFrame.Read(bytes.NewReader(data), &tr.Header, map[string]artifact.Record{
		"file":     artifact.Decode(func(f *TraceFileEntry) { tr.Files = append(tr.Files, f) }),
		"task":     artifact.Decode(func(t *TraceTask) { tr.Tasks = append(tr.Tasks, t) }),
		"arrivals": artifact.Decode(func(a *TraceArrivals) { tr.Arrivals = append(tr.Arrivals, a) }),
	}, &tr.Footer)
	if err != nil {
		return nil, err
	}
	h, f := &tr.Header, &tr.Footer
	if len(tr.Tasks) != h.Tasks || len(tr.Tasks) != f.Tasks {
		return nil, corrupt("%d task lines, header says %d, footer says %d", len(tr.Tasks), h.Tasks, f.Tasks)
	}
	if len(tr.Files) != h.Files {
		return nil, corrupt("%d file lines, header says %d", len(tr.Files), h.Files)
	}
	if len(tr.Arrivals) != f.Arrivals {
		return nil, corrupt("%d arrivals lines, footer says %d", len(tr.Arrivals), f.Arrivals)
	}
	if h.Serving != nil && len(tr.Arrivals) != len(h.Serving.Tenants) {
		return nil, corrupt("%d arrivals streams for %d tenants", len(tr.Arrivals), len(h.Serving.Tenants))
	}
	return tr, nil
}

// corrupt reports an inconsistent trace.
func corrupt(format string, args ...any) error {
	return traceFrame.Errorf(artifact.Corrupt, 0, format, args...)
}

// ReplayOutcome is a finished replay: the reconstructed run plus both
// digests.
type ReplayOutcome struct {
	// Header is the trace's header as recorded.
	Header *TraceHeader
	// Outcome and Workload are the replayed run's results; Workload.Tasks
	// carry the replay's terminal states and timestamps.
	Outcome  *core.Outcome
	Workload *workloads.Workload
	// RecordedDigest is the footer digest from the recording run; Digest is
	// the replay's recomputed one. Equal digests mean the replay reproduced
	// the recorded run exactly.
	RecordedDigest string
	Digest         string
}

// Verify returns a typed *artifact.Error with reason DigestMismatch when
// the replay diverged from the recorded run.
func (ro *ReplayOutcome) Verify() error {
	if ro.Digest != ro.RecordedDigest {
		return traceFrame.Errorf(DigestMismatch, 0, "replay digest %s != recorded %s", ro.Digest, ro.RecordedDigest)
	}
	return nil
}

// ReplayTrace decodes a trace and re-runs it: tasks are rebuilt from their
// recorded definitions, each tenant replays its recorded gap stream
// verbatim (workloads.TraceReplay) and offers its recorded task sequence,
// and the chaos schedule from the header re-injects the same faults. The
// optional tr records the replay's scheduler event stream. Load failures
// return a typed *artifact.Error; divergence is reported by Verify, not here.
func ReplayTrace(data []byte, tr *wq.Trace) (*ReplayOutcome, error) {
	d, err := ReadTrace(data)
	if err != nil {
		return nil, err
	}

	files := map[string]*wq.File{}
	for _, f := range d.Files {
		files[f.Name] = &wq.File{
			Name: f.Name, SizeBytes: f.SizeBytes,
			Cacheable: f.Cacheable, UnpackTime: f.UnpackTime,
		}
	}
	w := &workloads.Workload{
		Name:        d.Header.Workload,
		Guess:       d.Header.Guess,
		OraclePeaks: d.Header.OraclePeaks,
	}
	byID := map[int]*wq.Task{}
	for _, tt := range d.Tasks {
		t := &wq.Task{
			ID: tt.ID, Category: tt.Category, Priority: tt.Priority,
			Spec: decodeProc(tt.Spec), OutputBytes: tt.OutputBytes,
		}
		for _, name := range tt.Inputs {
			f, ok := files[name]
			if !ok {
				return nil, corrupt("task %d references unknown file %q", tt.ID, name)
			}
			t.Inputs = append(t.Inputs, f)
		}
		if _, dup := byID[t.ID]; dup {
			return nil, corrupt("duplicate task id %d", t.ID)
		}
		byID[t.ID] = t
		w.Tasks = append(w.Tasks, t)
	}
	// Second pass: wire dependencies (a dep may be defined after its user).
	for _, tt := range d.Tasks {
		t := byID[tt.ID]
		for _, dep := range tt.Deps {
			dt, ok := byID[dep]
			if !ok {
				return nil, corrupt("task %d depends on unknown task %d", tt.ID, dep)
			}
			t.DependsOn = append(t.DependsOn, dt)
		}
	}

	spec := &Spec{Workload: w, Config: d.Header.Config, Serving: d.Header.Serving}
	var feeds []func() *wq.Task
	if spec.Serving != nil {
		shape := *d.Header.Serving
		shape.Tenants = append([]TenantShape(nil), d.Header.Serving.Tenants...)
		feeds = make([]func() *wq.Task, len(shape.Tenants))
		for _, ar := range d.Arrivals {
			i := ar.Tenant
			if i < 0 || i >= len(shape.Tenants) {
				return nil, corrupt("arrivals stream for unknown tenant %d", i)
			}
			shape.Tenants[i].Arrival = &workloads.TraceReplay{Gaps: ar.Gaps}
			queue := ar.Offers
			for _, id := range queue {
				if _, ok := byID[id]; !ok {
					return nil, corrupt("tenant %d offers unknown task %d", i, id)
				}
			}
			pos := 0
			feeds[i] = func() *wq.Task {
				if pos >= len(queue) {
					return nil
				}
				t := byID[queue[pos]]
				pos++
				return t
			}
		}
		for i := range shape.Tenants {
			if shape.Tenants[i].Arrival == nil {
				return nil, corrupt("tenant %d has no recorded arrivals stream", i)
			}
			if feeds[i] == nil {
				empty := func() *wq.Task { return nil }
				feeds[i] = empty
			}
		}
		spec.Serving = &shape
	}

	out, err := spec.Config.RunScenario(w, func(cfg *core.RunConfig) {
		cfg.Trace = tr
		if spec.Serving != nil {
			cfg.Serving = spec.Serving.config(feeds)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("trace replay: %w", err)
	}
	digest, err := OutcomeDigest(out, w.Tasks)
	if err != nil {
		return nil, err
	}
	return &ReplayOutcome{
		Header: &d.Header, Outcome: out, Workload: w,
		RecordedDigest: d.Footer.Digest, Digest: digest,
	}, nil
}
