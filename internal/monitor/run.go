package monitor

import (
	"fmt"
	"math"

	"lfm/internal/metrics"
	"lfm/internal/sim"
	"lfm/internal/trace"
)

// Report is the outcome of one monitored task execution.
type Report struct {
	// Start and End are simulated timestamps of the run.
	Start, End sim.Time
	// WallTime is End - Start.
	WallTime sim.Time
	// Peak is the measured peak usage. With coarse polling and event
	// tracking disabled this may underestimate the true peak.
	Peak Resources
	// Completed is true if the task ran to completion.
	Completed bool
	// Killed is true if the monitor terminated the task.
	Killed bool
	// Zombie is true if the first kill attempt failed to take effect
	// immediately (injected kill-failure) and the task lingered.
	Zombie bool
	// Exhausted names the limit dimension that triggered the kill.
	Exhausted Kind
	// Polls counts polling measurements taken.
	Polls int
	// ProcEvents counts fork/exit events observed.
	ProcEvents int
	// Procs is the number of processes in the task's tree.
	Procs int
	// FirstExceeded records the first observed limit violation: the tripped
	// dimension, the observed value, and when. Its Kind is KindNone when no
	// measurement ever exceeded a limit. With a kill delay (zombie) the
	// violation time precedes End by the delay; on a clean kill they match.
	FirstExceeded Exceedance
	// MeanUsage is the time-weighted mean of the measured usage over the
	// run (the last measurement's value for zero-length runs). Compared to
	// Peak it captures the usage shape: mean near peak means flat usage,
	// mean far below means spiky.
	MeanUsage Resources
	// TimeToPeak is the offset from Start of the last measurement that
	// raised the peak in any dimension — how long until the task's footprint
	// was fully established.
	TimeToPeak sim.Time
	// Series holds every measurement when Config.RecordSeries is set.
	Series []Sample
}

// Exceedance describes one observed limit violation.
type Exceedance struct {
	// Kind is the dimension that tripped.
	Kind Kind
	// Value is the observed usage in that dimension at the violation.
	Value float64
	// At is the simulated time of the observation.
	At sim.Time
}

// Source names what triggered an observed measurement.
type Source int

const (
	// SourcePoll is a periodic polling measurement.
	SourcePoll Source = iota
	// SourceEvent is a fork/exit-triggered measurement.
	SourceEvent
	// SourceFinal is the final measurement at task completion.
	SourceFinal
)

// Observer receives every measurement of an observed run, in time order.
// Observers must be passive: they may record what they see but must not
// schedule simulation events or mutate the run.
type Observer func(at sim.Time, u Resources, src Source)

// Sample is one recorded measurement.
type Sample struct {
	At    sim.Time
	Usage Resources
	// FromEvent marks fork/exit-triggered measurements (vs polls).
	FromEvent bool
}

// Config parameterizes an LFM.
type Config struct {
	// PollInterval is the /proc polling period. The paper notes polling
	// alone suffices "for tasks that run for more than a handful of
	// seconds, and that do not fork themselves".
	PollInterval sim.Time
	// TrackProcessEvents enables the LD_PRELOAD-style fork/exit hooks that
	// trigger an immediate measurement on every process creation and exit.
	TrackProcessEvents bool
	// Overhead is the fixed cost the LFM adds around a task (establishing
	// the result queue, forking the task process, final reporting). Paper
	// §VI: Python-specific techniques keep this low enough for per-call
	// containment.
	Overhead sim.Time
	// Callback, if set, runs at the end of each polling interval with the
	// current measurement — the decorator callback of §VI-B1. It is a live
	// per-poll consumer: a run with a Callback wakes the engine at every
	// grid point so the callback sees each poll as it happens, where a bare
	// run folds its polls arithmetically (see run.catchUp).
	Callback func(at sim.Time, current Resources)
	// RecordSeries, when true, retains every measurement in the report's
	// Series for post-hoc inspection (usage timelines).
	RecordSeries bool
	// KillDelay, if set, is consulted when the monitor decides to kill a
	// task; a positive return defers the effective kill by that long while
	// the task keeps running (and being measured) — a zombie left behind by
	// a failed SIGKILL delivery. Fault injection uses this hook; nil means
	// kills are immediate.
	KillDelay func() sim.Time
	// Metrics, when non-nil, registers LFM instruments (polls, process
	// events, kills by resource kind) on the registry and updates them for
	// every run under this monitor.
	Metrics *metrics.Registry
}

// DefaultConfig returns a 1-second poll with event tracking enabled.
func DefaultConfig() Config {
	return Config{
		PollInterval:       sim.Second,
		TrackProcessEvents: true,
		Overhead:           20 * sim.Millisecond,
	}
}

// LFM is a lightweight function monitor bound to a simulation engine.
type LFM struct {
	Eng *sim.Engine
	Cfg Config

	met *lfmMetrics
	// armPolls, when set, replaces the grid walker as the way a run's polls
	// are scheduled. Only tests set it, to run the eager reference poller
	// the walker is checked against.
	armPolls func(*run)
}

// New returns an LFM on the engine.
func New(eng *sim.Engine, cfg Config) *LFM {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = sim.Second
	}
	m := &LFM{Eng: eng, Cfg: cfg}
	if cfg.Metrics != nil {
		m.met = newLFMMetrics(cfg.Metrics)
	}
	return m
}

// lfmMetrics holds the monitor's registry instruments. All methods are
// nil-safe so uninstrumented runs pay only a nil check.
type lfmMetrics struct {
	runs        *metrics.Counter
	completions *metrics.Counter
	aborts      *metrics.Counter
	polls       *metrics.Counter
	procEvents  *metrics.Counter
	kills       map[Kind]*metrics.Counter
}

func newLFMMetrics(reg *metrics.Registry) *lfmMetrics {
	reg.Help("lfm_kills_total", "tasks killed by the monitor, by exhausted resource kind")
	kills := make(map[Kind]*metrics.Counter, 3)
	for _, k := range []Kind{KindCores, KindMemory, KindDisk} {
		kills[k] = reg.Counter("lfm_kills_total", metrics.L("kind", string(k)))
	}
	return &lfmMetrics{
		runs:        reg.Counter("lfm_runs_total"),
		completions: reg.Counter("lfm_completions_total"),
		aborts:      reg.Counter("lfm_aborts_total"),
		polls:       reg.Counter("lfm_polls_total"),
		procEvents:  reg.Counter("lfm_proc_events_total"),
		kills:       kills,
	}
}

func (lm *lfmMetrics) onRun() {
	if lm != nil {
		lm.runs.Inc()
	}
}

func (lm *lfmMetrics) onPoll() {
	if lm != nil {
		lm.polls.Inc()
	}
}

func (lm *lfmMetrics) onProcEvent() {
	if lm != nil {
		lm.procEvents.Inc()
	}
}

func (lm *lfmMetrics) onKill(kind Kind) {
	if lm != nil {
		lm.kills[kind].Inc()
	}
}

func (lm *lfmMetrics) onComplete() {
	if lm != nil {
		lm.completions.Inc()
	}
}

func (lm *lfmMetrics) onAbort() {
	if lm != nil {
		lm.aborts.Inc()
	}
}

// run tracks one monitored execution in flight.
type run struct {
	m      *LFM
	spec   ProcSpec
	limits Resources
	start  sim.Time
	rep    Report
	done   func(Report)

	finished bool
	zombie   bool
	// preArm marks a bare run's wake at grid point k-1 (see armWalker).
	preArm bool
	// haveU is set once a measurement backs lastU (see obs below).
	haveU    bool
	endEv    sim.Event
	zombieEv sim.Event
	procEvs  []sim.Event

	// The poll grid walker. Grid point k sits at start + PollInterval added
	// k times; next is the first grid point not yet measured (0 during the
	// initial measurement) and nextAt its time. wakeEv is the one pending
	// wake (see armWalker); wakeFn is its closure, built once per run so
	// each re-arm does not allocate.
	next   int
	nextAt sim.Time
	wakeEv sim.Event
	wakeFn func()

	// obs, if set, receives every measurement (telemetry streaming). The
	// mean-usage integral and last-measurement state back Report.MeanUsage.
	obs      Observer
	lastU    Resources
	lastAt   sim.Time
	integral Resources // componentwise usage integral (unit-seconds)

	// Span recording (nil/NoSpan when the run is untraced): parent is the
	// caller's execute span; ovSpan covers the monitor's setup overhead.
	tr       *trace.Store
	parent   trace.SpanID
	ovSpan   trace.SpanID
	trTask   int
	trWorker int
}

// Execution is a handle to an in-flight monitored run. Aborting it (e.g.
// because the hosting worker disappeared) cancels all monitoring events and
// suppresses the completion report.
type Execution struct {
	r       *run
	startEv sim.Event
}

// Abort cancels the execution; the done callback will not fire.
func (e *Execution) Abort() {
	r := e.r
	if r.finished {
		return
	}
	r.m.met.onAbort()
	if !e.startEv.Cancelled() {
		// The overhead event has not fired yet: monitoring never began, so
		// there is nothing to tear down and no measurements were taken.
		// Cancel the pending start and mark the run finished without
		// fabricating a report whose Start would be zero and whose WallTime
		// would span back to the epoch.
		r.m.Eng.Cancel(e.startEv)
		r.tr.End(r.ovSpan, r.m.Eng.Now(), trace.OutcomeAborted, "")
		r.finished = true
		r.done = nil
		return
	}
	r.done = nil
	r.catchUp(r.m.Eng.Now(), 0)
	r.finish(false)
}

// SetKillDelay installs (or, with nil, removes) the kill-failure hook on a
// live monitor; it applies to kills decided after the call.
func (m *LFM) SetKillDelay(fn func() sim.Time) { m.Cfg.KillDelay = fn }

// Run executes spec under the given limits (zero dimensions unlimited) and
// calls done with the report. The task is killed at the first measurement
// that observes a limit violation; between measurements violations go
// unseen, exactly as with a real polling monitor. The returned handle can
// abort the execution.
func (m *LFM) Run(spec ProcSpec, limits Resources, done func(Report)) *Execution {
	return m.RunTraced(spec, limits, nil, trace.NoSpan, done)
}

// RunTraced is Run with span recording: the monitor's setup overhead becomes
// an lfm-overhead child of parent, and every poll, fork/exit measurement, and
// kill is recorded as an instant under it. Recording is passive — a traced
// run reports, kills and finishes exactly as an untraced one; it only wakes
// the engine at every poll grid point to record each poll live (see
// RunObserved).
func (m *LFM) RunTraced(spec ProcSpec, limits Resources, tr *trace.Store, parent trace.SpanID, done func(Report)) *Execution {
	return m.RunObserved(spec, limits, tr, parent, nil, done)
}

// RunObserved is RunTraced with a measurement observer: obs receives every
// measurement the monitor takes (polls, fork/exit events, the final one), in
// time order, after the peak is updated and before any kill decision. The
// observer, a trace store, a Config.Callback and a metrics registry are
// live per-poll consumers: a run with any of them wakes the engine at every
// poll grid point and delivers each poll at its own instant. A bare run
// computes its polls arithmetically and wakes only where a limit can trip.
// Either way the report, the kill time and every other engine event are the
// same.
func (m *LFM) RunObserved(spec ProcSpec, limits Resources, tr *trace.Store, parent trace.SpanID, obs Observer, done func(Report)) *Execution {
	r := &run{m: m, spec: spec, limits: limits, done: done, obs: obs,
		tr: tr, parent: parent, ovSpan: trace.NoSpan, trTask: -1, trWorker: -1}
	if tr != nil {
		psp := tr.Span(parent)
		r.trTask, r.trWorker = psp.Task, psp.Worker
		r.ovSpan = tr.Begin(trace.Span{
			Kind: trace.KindLFMOverhead, Parent: parent,
			Task: r.trTask, Category: psp.Category, Worker: r.trWorker,
			Start: m.Eng.Now(),
		})
	}
	ex := &Execution{r: r}
	m.met.onRun()
	ex.startEv = m.Eng.After(m.Cfg.Overhead, func() {
		r.tr.End(r.ovSpan, m.Eng.Now(), trace.OutcomeOK, "")
		r.start = m.Eng.Now()
		r.rep.Start = r.start
		r.rep.Procs = spec.countProcs()
		// Initial measurement at task start.
		r.measureAt(byPoll, r.start)
		if r.finished {
			return
		}
		r.next, r.nextAt = 1, r.start+m.Cfg.PollInterval
		if m.armPolls != nil {
			m.armPolls(r)
		} else {
			r.armWalker()
		}
		if m.Cfg.TrackProcessEvents {
			r.scheduleProcEvents(spec, r.start)
		}
		r.endEv = m.Eng.After(spec.Duration(), func() { r.complete() })
	})
	return ex
}

// measureSource names what triggered a measurement: a polling tick, a
// fork/exit process event, or the final measurement at task completion.
type measureSource int

const (
	byPoll measureSource = iota
	byProcEvent
	atCompletion
)

// measureAt samples usage at time now (the engine's clock, or a grid point
// the walker folds after the fact), updates the peak, and enforces limits.
func (r *run) measureAt(src measureSource, now sim.Time) {
	if r.finished {
		return
	}
	u := r.spec.UsageAt(now - r.start)
	fromEvent := false
	switch src {
	case byPoll:
		r.rep.Polls++
		r.m.met.onPoll()
		r.traceInstant(trace.KindPoll, "", now)
		if cb := r.m.Cfg.Callback; cb != nil {
			cb(now, u)
		}
	case byProcEvent:
		r.rep.ProcEvents++
		r.m.met.onProcEvent()
		r.traceInstant(trace.KindProcEvent, "", now)
		fromEvent = true
	case atCompletion:
		// The final measurement is the root process's exit: it is a process
		// event only when event tracking is enabled. Without it the
		// measurement still updates the peak but is charged to neither
		// channel, so ablation counts stay honest.
		if r.m.Cfg.TrackProcessEvents {
			r.rep.ProcEvents++
			r.m.met.onProcEvent()
			fromEvent = true
		}
	}
	if r.m.Cfg.RecordSeries {
		r.rep.Series = append(r.rep.Series, Sample{At: now, Usage: u, FromEvent: fromEvent})
	}
	// Time-weighted mean: accrue the previous level over the elapsed gap.
	if r.haveU {
		dt := float64(now - r.lastAt)
		r.integral.Cores += r.lastU.Cores * dt
		r.integral.MemoryMB += r.lastU.MemoryMB * dt
		r.integral.DiskMB += r.lastU.DiskMB * dt
	}
	r.lastU, r.lastAt, r.haveU = u, now, true
	if u.Cores > r.rep.Peak.Cores+1e-9 || u.MemoryMB > r.rep.Peak.MemoryMB+1e-9 ||
		u.DiskMB > r.rep.Peak.DiskMB+1e-9 {
		r.rep.TimeToPeak = now - r.start
	}
	r.rep.Peak = r.rep.Peak.Max(u)
	if r.obs != nil {
		so := SourcePoll
		switch src {
		case byProcEvent:
			so = SourceEvent
		case atCompletion:
			so = SourceFinal
		}
		r.obs(now, u, so)
	}
	if kind := Exceeds(u, r.limits); kind != KindNone {
		if r.rep.FirstExceeded.Kind == KindNone {
			r.rep.FirstExceeded = Exceedance{Kind: kind, Value: dim(u, kind), At: now}
		}
		r.kill(kind)
	}
}

// dim extracts one dimension's value.
func dim(u Resources, kind Kind) float64 {
	switch kind {
	case KindCores:
		return u.Cores
	case KindDisk:
		return u.DiskMB
	default:
		return u.MemoryMB
	}
}

// Tie rules. The walker reproduces a self-rescheduling poll event: poll 1
// was pushed when monitoring began, before the fork/exit events and the
// completion, and poll k >= 2 was pushed when poll k-1 fired. So at an equal
// timestamp poll 1 fires before the run's own fork/exit events and
// completion and poll k >= 2 after them, and poll k fires before a deferred
// kill iff it was already pushed when the kill was decided. allTies folds
// every grid point at the current instant.
const allTies = math.MaxInt

// catchUp folds the grid points before now, and those at now with index at
// most last, through the measurement body at their own grid times, in
// order. Every measurement other than a poll calls it first, so samples,
// the peak, the time-weighted integral and the kill decision see the polls
// in exactly the order eager poll events would have delivered them.
func (r *run) catchUp(now sim.Time, last int) {
	for !r.finished && (r.nextAt < now || r.nextAt == now && r.next <= last) {
		r.measureAt(byPoll, r.nextAt)
		r.next++
		r.nextAt += r.m.Cfg.PollInterval
	}
}

// live reports whether some consumer must see each poll as it happens: the
// decorator callback, a measurement observer, span recording, or metrics.
func (r *run) live() bool {
	return r.m.Cfg.Callback != nil || r.obs != nil || r.tr != nil || r.m.met != nil
}

// armWalker schedules the run's polling wakes. A live run wakes at every
// grid point, exactly the eager poll event pattern. A bare run needs the
// engine only where a poll decides a kill: it walks the grid to the first
// point whose sample exceeds the limits before the task ends and wakes
// there. For k >= 2 the wake is armed at grid point k-1 and pushes the
// kill check from there, so the check carries the sequence position eager
// poll k would have, against other runs' events at the same instant.
func (r *run) armWalker() {
	if r.live() {
		r.wake()
		return
	}
	if Exceeds(r.spec.peakBound(), r.limits) == KindNone {
		return
	}
	// Grid points before the completion are measured, and so is point 1
	// when it ties with the completion (see the tie rules above).
	end := r.start + r.spec.Duration()
	armAt := r.nextAt // grid point k-1, or point 1 itself when k == 1
	for k, at := 1, r.nextAt; at < end || k == 1 && at == end; k, at = k+1, at+r.m.Cfg.PollInterval {
		if Exceeds(r.spec.UsageAt(at-r.start), r.limits) != KindNone {
			r.preArm = k > 1
			r.wakeEv = r.m.Eng.At(armAt, r.wakeCallback())
			return
		}
		armAt = at
	}
}

// wake arms a wake at the next grid point.
func (r *run) wake() { r.wakeEv = r.m.Eng.At(r.nextAt, r.wakeCallback()) }

// wakeCallback returns the run's wake closure, building it on first use.
func (r *run) wakeCallback() func() {
	if r.wakeFn == nil {
		r.wakeFn = func() {
			if r.preArm {
				// At grid point k-1: push the kill check at grid point k.
				r.preArm = false
				r.wakeEv = r.m.Eng.After(r.m.Cfg.PollInterval, r.wakeFn)
				return
			}
			r.catchUp(r.m.Eng.Now(), allTies)
			if !r.finished && r.live() {
				r.wake()
			}
		}
	}
	return r.wakeFn
}

// scheduleProcEvents registers a measurement at every fork and exit in the
// tree. A real LFM learns these from the preloaded library; the simulation
// schedules them from the spec.
func (r *run) scheduleProcEvents(spec ProcSpec, base sim.Time) {
	for _, c := range spec.Children {
		at := base + c.StartOffset
		r.procEvs = append(r.procEvs, r.m.Eng.At(at, r.procEvent))
		exit := at + c.Spec.SelfDuration()
		r.procEvs = append(r.procEvs, r.m.Eng.At(exit, r.procEvent))
		r.scheduleProcEvents(c.Spec, at)
	}
}

// procEvent is one fork or exit measurement.
func (r *run) procEvent() {
	now := r.m.Eng.Now()
	r.catchUp(now, 1)
	r.measureAt(byProcEvent, now)
}

// traceInstant records a monitor event at time at under the caller's
// execute span.
func (r *run) traceInstant(kind trace.Kind, detail string, at sim.Time) {
	if r.tr == nil {
		return
	}
	r.tr.Instant(trace.Span{
		Kind: kind, Parent: r.parent, Task: r.trTask, Worker: r.trWorker,
		Detail: detail,
	}, at)
}

func (r *run) kill(kind Kind) {
	if r.zombie {
		return // kill already pending; the task lingers until it lands
	}
	if kd := r.m.Cfg.KillDelay; kd != nil {
		if d := kd(); d > 0 {
			// The kill signal failed to take effect: the task keeps running
			// (and being measured) until the delayed kill lands — unless it
			// completes naturally first, in which case finish() cancels it.
			r.zombie = true
			r.rep.Zombie = true
			r.traceInstant(trace.KindKill, string(kind)+" deferred (zombie)", r.m.Eng.Now())
			// Eager polls up to grid point next were already pushed, so
			// at an equal instant they precede the deferred kill.
			pushed := r.next
			r.zombieEv = r.m.Eng.After(d, func() {
				r.catchUp(r.m.Eng.Now(), pushed)
				r.doKill(kind)
			})
			return
		}
	}
	r.doKill(kind)
}

func (r *run) doKill(kind Kind) {
	r.rep.Killed = true
	r.rep.Exhausted = kind
	r.m.met.onKill(kind)
	detail := string(kind)
	// Telemetry-observed runs enrich the kill span with the observed
	// violation; bare runs keep the pre-telemetry detail byte-for-byte.
	if r.obs != nil {
		if fe := r.rep.FirstExceeded; fe.Kind != KindNone {
			detail = fmt.Sprintf("%s: observed %.1f at t=%.1fs", fe.Kind, fe.Value, float64(fe.At))
		}
	}
	r.traceInstant(trace.KindKill, detail, r.m.Eng.Now())
	r.finish(false)
}

func (r *run) complete() {
	// Final measurement at completion so short tasks are never unmeasured.
	now := r.m.Eng.Now()
	r.catchUp(now, 1)
	r.measureAt(atCompletion, now)
	if !r.finished {
		r.m.met.onComplete()
		r.finish(true)
	}
}

func (r *run) finish(completed bool) {
	if r.finished {
		return
	}
	r.finished = true
	r.rep.Completed = completed
	r.rep.End = r.m.Eng.Now()
	r.rep.WallTime = r.rep.End - r.rep.Start
	if r.haveU {
		if dt := float64(r.rep.End - r.lastAt); dt > 0 {
			r.integral.Cores += r.lastU.Cores * dt
			r.integral.MemoryMB += r.lastU.MemoryMB * dt
			r.integral.DiskMB += r.lastU.DiskMB * dt
		}
		if w := float64(r.rep.WallTime); w > 0 {
			r.rep.MeanUsage = Resources{
				Cores:    r.integral.Cores / w,
				MemoryMB: r.integral.MemoryMB / w,
				DiskMB:   r.integral.DiskMB / w,
			}
		} else {
			r.rep.MeanUsage = r.lastU
		}
	}
	eng := r.m.Eng
	eng.Cancel(r.wakeEv)
	eng.Cancel(r.endEv)
	eng.Cancel(r.zombieEv)
	for _, ev := range r.procEvs {
		eng.Cancel(ev)
	}
	done := r.done
	if done != nil {
		done(r.rep)
	}
}
