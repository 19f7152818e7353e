// Package wq reimplements the Work Queue master/worker execution framework
// the paper builds on: a master holds a queue of tasks with explicit input
// and output files and resource labels; long-lived pilot workers on cluster
// nodes advertise capacity; the scheduler matches tasks to workers (packing
// several tasks per node), prefers workers that already cache a task's
// inputs, runs each task inside an LFM that enforces its label, and retries
// tasks that exhaust their allocation under a bigger label from the
// allocation strategy.
package wq

import (
	"fmt"
	"sort"
	"time"

	"lfm/internal/alloc"
	"lfm/internal/cluster"
	"lfm/internal/monitor"
	"lfm/internal/obs"
	"lfm/internal/sim"
	"lfm/internal/trace"
	"lfm/internal/tseries"
)

// File is a named transferable input, e.g. a packed environment or a data
// file. Cacheable files stay on the worker after first use and schedulers
// prefer placing tasks where their inputs already live.
type File struct {
	// Name identifies the file cluster-wide; transfers and caches key on it.
	Name string
	// SizeBytes drives transfer time and disk accounting.
	SizeBytes int64
	// Cacheable marks the file as reusable across tasks on one worker.
	Cacheable bool
	// UnpackTime is charged once after the first transfer to a worker
	// (e.g. conda-unpack of a packed environment).
	UnpackTime sim.Time
}

// TaskState tracks a task through the queue.
type TaskState int

// Task lifecycle states.
const (
	TaskWaiting TaskState = iota // dependencies outstanding
	TaskReady                    // eligible for scheduling
	TaskRunning                  // placed on a worker
	TaskDone                     // completed successfully
	TaskFailed                   // exhausted retries
)

// Task is one function invocation to place in the cluster.
type Task struct {
	// ID identifies the task in traces and errors.
	ID int
	// Category groups tasks with similar resource behaviour; allocation
	// strategies learn and label per category.
	Category string
	// Priority orders scheduling: higher-priority ready tasks are examined
	// first, ties breaking by ready order (submit sequence). It must not
	// change after Submit.
	Priority int
	// Spec is the ground-truth process behaviour (visible only through the
	// LFM, except to the Oracle strategy).
	Spec monitor.ProcSpec
	// Inputs are transferred to (and possibly cached on) the worker.
	Inputs []*File
	// OutputBytes is returned to the master on completion.
	OutputBytes int64
	// DependsOn lists tasks that must complete first.
	DependsOn []*Task

	// Result fields, populated by the master.
	State TaskState
	// Attempts counts placements tried (1 for a first-attempt success).
	Attempts int
	// Report is the monitor's account of the final attempt.
	Report monitor.Report
	// SubmittedAt, StartedAt, and FinishedAt timestamp the lifecycle.
	SubmittedAt sim.Time
	StartedAt   sim.Time // start of the final attempt's execution
	FinishedAt  sim.Time

	waitingOn int
	waiters   []*Task
	retryNext *alloc.Decision
	// readySeq is the task's position in scheduling order, stamped each
	// time it enters the ready queue (indexed matcher).
	readySeq int64
	// cacheKey/cacheFiles memoize the task's cacheable input set (see
	// cacheSet): inputs are frozen at Submit, and re-deriving the canonical
	// key on every scheduler examination dominated large-queue rounds.
	cacheKey   string
	cacheFiles map[string]int64
	cacheMemo  bool
	spans      taskSpans
	// active lists this task's in-flight placements — usually one, two while
	// a speculative copy races the original.
	active []*attempt
	// specCount counts speculative copies launched over the task's lifetime.
	specCount int
}

// ActiveAttempts reports the number of in-flight placements (0 after the
// task reaches a terminal state). Exposed for invariant checking.
func (t *Task) ActiveAttempts() int { return len(t.active) }

func (t *Task) dropActive(a *attempt) {
	for i, o := range t.active {
		if o == a {
			t.active = append(t.active[:i], t.active[i+1:]...)
			return
		}
	}
}

// attempt is one placement of a task on a worker, from placement decision to
// a terminal outcome (report, loss, cancellation, or staging failure).
// Workers keep their attempts in an ordered slice so that recovery after a
// worker loss processes them in placement order — map iteration here would
// make chaos runs nondeterministic.
type attempt struct {
	t *Task
	w *Worker
	// dec/req are the allocation this attempt occupies on the worker.
	dec alloc.Decision
	req monitor.Resources
	// exec is the monitor handle, nil until staging completes.
	exec *monitor.Execution
	// speculative marks a straggler-mitigation copy: it does not consume the
	// task's retry budget and the first finished attempt wins.
	speculative bool
	// started is true once execution (not just staging) has begun.
	started bool
	// stranded marks an attempt whose staging finished on a dead-but-not-yet
	// -suspected worker; it is recovered when suspicion fires.
	stranded bool
	// done marks a terminal attempt; late continuations check it and bail.
	done bool
	// rec streams this attempt's measurements into the telemetry collector
	// (nil when telemetry is off or execution never started).
	rec *tseries.AttemptRecorder

	placedAt  sim.Time
	execStart sim.Time

	// span/phase are this attempt's trace spans (NoSpan when untraced).
	span  trace.SpanID
	phase trace.SpanID
}

// Config parameterizes a master.
type Config struct {
	// LinkBandwidth is the master's network capacity to its workers.
	LinkBandwidth float64
	// Monitor configures the per-task LFM.
	Monitor monitor.Config
	// Strategy labels tasks with resource allocations.
	Strategy alloc.Strategy
	// MaxRetries bounds resource-exhaustion retries per task.
	MaxRetries int
	// Placement selects the worker-choice policy (default cache affinity).
	Placement Placement
	// Matcher selects the matching-loop implementation (default the indexed
	// matcher; see Matcher). Both make identical placement decisions; the
	// scan exists for the differential tests.
	Matcher Matcher
	// Resilience configures failure detection and mitigation (heartbeats,
	// speculation, quarantine, staging retries). The zero value disables
	// everything, leaving the master's behaviour unchanged.
	Resilience ResilienceConfig
}

// DefaultConfig returns a 10 Gb/s master link, 1 s polling LFM, and the Auto
// strategy.
func DefaultConfig() Config {
	return Config{
		LinkBandwidth: 1.25e9,
		Monitor:       monitor.DefaultConfig(),
		Strategy:      alloc.NewAuto(),
		MaxRetries:    5,
	}
}

// Stats aggregates a run's outcomes.
type Stats struct {
	// Submitted, Completed, and Failed count tasks reaching each state.
	Submitted int
	Completed int
	Failed    int
	// DepFailed counts tasks failed without executing because a dependency
	// failed (included in Failed).
	DepFailed int
	// Retries counts resource-exhaustion retries across all tasks.
	Retries  int
	BytesIn  int64 // transferred master -> workers
	BytesOut int64 // transferred workers -> master
	// CacheHits and CacheMisses count input stagings served from worker
	// caches versus transferred.
	CacheHits   int
	CacheMisses int
	// LostTasks counts attempts lost to disconnected workers.
	LostTasks int
	// UsedCoreSeconds accumulates measured cores x wall-time per completed
	// task, for effective-utilization reporting.
	UsedCoreSeconds sim.Stats
	WaitTimes       sim.Stats // submit -> first execution start
	ExecTimes       sim.Stats // per successful attempt
	PeakCoresUsed   float64
	// Resilience is allocated on the first failure-domain event (detection,
	// speculation, quarantine, staging failure); nil on undisturbed runs so
	// their serialized Outcome is unchanged.
	Resilience *ResilienceStats `json:",omitempty"`
}

// ResilienceStats aggregates failure detection and mitigation activity.
type ResilienceStats struct {
	// DetectionDelays samples worker death -> heartbeat suspicion latency.
	DetectionDelays sim.Stats
	// SpecLaunched, SpecWins, and SpecCancelled count speculative copies
	// launched, copies that beat the original, and copies cancelled (either
	// losing the race or dying); SpecWasteSeconds is the core-time the
	// cancelled copies burned.
	SpecLaunched     int
	SpecWins         int
	SpecCancelled    int
	SpecWasteSeconds float64
	// StagingRetries counts faulted input transfers retried under backoff;
	// StagingFailures counts attempts failed outright by staging faults.
	StagingRetries  int
	StagingFailures int
	// Quarantines counts circuit-breaker trips across all workers.
	Quarantines int
}

// resilience returns the lazily-allocated resilience stats block.
func (s *Stats) resilience() *ResilienceStats {
	if s.Resilience == nil {
		s.Resilience = &ResilienceStats{}
	}
	return s.Resilience
}

// stagingWaiter is one attempt piggybacking on another attempt's in-flight
// transfer of a cacheable file: ok resumes it when the transfer lands, fail
// propagates a terminal transfer failure.
type stagingWaiter struct {
	ok   func()
	fail func()
}

// Worker is one pilot job on a node executing tasks under LFMs.
type Worker struct {
	// Node is the cluster node the pilot job occupies.
	Node *cluster.Node

	usedCores  float64
	usedMemMB  float64
	usedDiskMB float64
	running    int
	alive      bool
	// attempts holds in-flight placements in placement order.
	attempts []*attempt

	// Failure domain state (see resilience.go): dead marks a crashed worker
	// the master has not yet suspected; slow stretches task runtimes; the
	// quarantine fields implement the consecutive-failure circuit breaker.
	dead           bool
	diedAt         sim.Time
	joinedAt       sim.Time
	slow           float64
	suspectEv      sim.Event
	consecFails    int
	quarantined    bool
	probationRound int
	probationEv    sim.Event

	// smeta is the indexed matcher's bookkeeping for this worker, owned by
	// schedState (nil under the scan matcher or once the worker has left).
	smeta *workerMeta

	cache      map[string]bool
	cacheBytes int64
	// staging holds continuations waiting on an in-flight transfer of a
	// cacheable file to this worker, so concurrent tasks share one copy.
	staging map[string][]stagingWaiter
	// span covers the worker's connected lifetime when tracing is on.
	span trace.SpanID
}

// Alive reports whether the worker is still connected.
func (w *Worker) Alive() bool { return w.alive }

// Quarantined reports whether the circuit breaker is blocking placements.
func (w *Worker) Quarantined() bool { return w.quarantined }

func (w *Worker) dropAttempt(a *attempt) {
	for i, o := range w.attempts {
		if o == a {
			w.attempts = append(w.attempts[:i], w.attempts[i+1:]...)
			return
		}
	}
}

// free reports available capacity.
func (w *Worker) free() monitor.Resources {
	return monitor.Resources{
		Cores:    w.Node.Cores - w.usedCores,
		MemoryMB: w.Node.MemoryMB - w.usedMemMB,
		DiskMB:   w.Node.DiskMB - w.usedDiskMB,
	}
}

// cachedBytes scores how much of a task's input is already local.
func (w *Worker) cachedBytes(t *Task) int64 {
	var n int64
	for _, f := range t.Inputs {
		if w.cache[f.Name] {
			n += f.SizeBytes
		}
	}
	return n
}

// Master owns the task queue and the worker pool.
type Master struct {
	// Eng is the engine driving the simulation; Cfg the configuration
	// passed to NewMaster. Both are read-only after construction.
	Eng *sim.Engine
	Cfg Config

	link    *sim.FairShare
	lfm     *monitor.LFM
	workers []*Worker
	ready   []*Task
	stats   Stats

	onDone func(*Task)
	// onReady, if set, is notified whenever a task enters the ready queue
	// (used by the Autoscaler to wake up).
	onReady func()
	// trace, if set, records scheduler events.
	trace *Trace
	// sched is the indexed matcher's state; nil under MatcherScan.
	sched *schedState
	// schedStats measures the matching loop under either matcher.
	schedStats SchedStats
	// categories aggregates per-category monitor reports.
	categories categoryTracker
	// met, if set, updates registry instruments on the hot paths.
	met *masterMetrics
	// telem, if set, collects per-attempt usage series and node utilization
	// timelines (see SetTelemetry). All calls through it are nil-safe.
	telem *tseries.Collector
	// obs, if set, receives every observable state change for cadence
	// snapshots (see SetObs). All calls through it are nil-safe.
	obs *obs.Bus

	scheduling bool
	// schedFn is the deferred scheduling-pass closure, built once.
	schedFn func()

	// Fault-injection hooks (see resilience.go). stageFault fails a landed
	// staging transfer; stageDelay stalls one before it starts.
	stageFault func(*Worker, *File) bool
	stageDelay func(*File) sim.Time
	// resRNG jitters staging retry backoff; forked lazily so undisturbed
	// runs draw the same stream as before this field existed.
	resRNG *sim.RNG
	// specArmed is true while the speculation scan loop is scheduled;
	// specEv is the pending scan event (cancelled when the queue drains).
	specArmed bool
	specEv    sim.Event

	// utilization accounting: integrals of allocated and available
	// core-seconds, advanced whenever allocation changes. poolCores and
	// poolUsedCores mirror the sums over the live pool so one advance is
	// O(1) instead of a scan over every worker.
	coreSecondsUsed  float64
	coreSecondsAvail float64
	lastAccount      sim.Time
	poolCores        float64
	poolUsedCores    float64

	// attemptSlab is a chunked arena for attempt records; placements carve
	// from it instead of allocating one object each.
	attemptSlab []attempt
}

// NewMaster returns a master on the engine.
func NewMaster(eng *sim.Engine, cfg Config) *Master {
	if cfg.Strategy == nil {
		cfg.Strategy = alloc.NewAuto()
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.LinkBandwidth <= 0 {
		cfg.LinkBandwidth = 1.25e9
	}
	cfg.Resilience.fillDefaults()
	m := &Master{
		Eng:  eng,
		Cfg:  cfg,
		link: sim.NewFairShare(eng, cfg.LinkBandwidth),
		lfm:  monitor.New(eng, cfg.Monitor),
	}
	if cfg.Matcher == MatcherIndexed {
		m.sched = newSchedState(m)
	}
	return m
}

// OnTaskDone registers a callback fired when a task completes or fails for
// good.
func (m *Master) OnTaskDone(fn func(*Task)) { m.onDone = fn }

// Stats returns a snapshot of run statistics.
func (m *Master) Stats() *Stats { return &m.stats }

// Workers reports the current pool size.
func (m *Master) Workers() int { return len(m.workers) }

// LiveWorkers returns the connected workers in join order (a copy; safe to
// index for fault injection).
func (m *Master) LiveWorkers() []*Worker {
	return append([]*Worker(nil), m.workers...)
}

// account advances the utilization integrals to the current time. It must
// run before any change to allocation or pool size.
func (m *Master) account() {
	now := m.Eng.Now()
	dt := float64(now - m.lastAccount)
	m.lastAccount = now
	if dt <= 0 {
		return
	}
	m.coreSecondsAvail += m.poolCores * dt
	m.coreSecondsUsed += m.poolUsedCores * dt
}

// Utilization reports the fraction of provisioned core-time that was
// allocated to tasks so far — the packing-efficiency measure behind the
// paper's "superior performance and utilization" claim. Unmanaged runs
// show high *allocated* utilization with one task per node; see
// EffectiveUtilization for what tasks actually consumed.
func (m *Master) Utilization() float64 {
	m.account()
	if m.coreSecondsAvail == 0 {
		return 0
	}
	return m.coreSecondsUsed / m.coreSecondsAvail
}

// EffectiveUtilization reports the fraction of provisioned core-time that
// completed tasks actually used (sum of measured core-seconds over
// available core-seconds). Whole-node allocations waste the difference.
func (m *Master) EffectiveUtilization() float64 {
	m.account()
	if m.coreSecondsAvail == 0 {
		return 0
	}
	return m.stats.UsedCoreSeconds.Sum() / m.coreSecondsAvail
}

// AddWorker connects a provisioned node as a worker.
func (m *Master) AddWorker(node *cluster.Node) *Worker {
	m.account()
	w := &Worker{
		Node:     node,
		alive:    true,
		joinedAt: m.Eng.Now(),
		cache:    make(map[string]bool),
		staging:  make(map[string][]stagingWaiter),
	}
	m.workers = append(m.workers, w)
	m.poolCores += node.Cores
	m.obs.WorkerJoined(node.Cores)
	if m.sched != nil {
		m.sched.workerJoined(w)
	}
	m.met.onWorkerJoin(w)
	m.telem.NodeJoin(node.ID, monitor.Resources{
		Cores: node.Cores, MemoryMB: node.MemoryMB, DiskMB: node.DiskMB,
	})
	m.traceWorkerJoin(w)
	m.schedule()
	return w
}

// RemoveWorker disconnects a worker, as when a pilot job hits its batch
// time limit or its node fails. Tasks running there are lost and resubmitted
// (Work Queue's behaviour for disconnected workers); the attempt does not
// count against the exhaustion retry budget, and the worker's cache is gone.
func (m *Master) RemoveWorker(w *Worker) {
	if !w.alive {
		return
	}
	m.account()
	w.alive = false
	m.poolCores -= w.Node.Cores
	m.poolUsedCores -= w.usedCores
	m.obs.WorkerLeft(w.Node.Cores, w.usedCores, w.quarantined)
	m.Eng.Cancel(w.suspectEv)
	if m.sched != nil {
		m.sched.workerLeft(w)
	}
	m.met.onWorkerLeave(w)
	m.telem.NodeLeave(w.Node.ID)
	m.traceWorkerLeave(w)
	for i, other := range m.workers {
		if other == w {
			m.workers = append(m.workers[:i], m.workers[i+1:]...)
			break
		}
	}
	// Recover attempts in placement order. Attempts whose staging transfer
	// is still in flight are recovered by the transfer continuation when it
	// observes the dead worker, exactly as before; stranded attempts (whose
	// staging finished while the death was undetected) are recovered here.
	for _, a := range append([]*attempt(nil), w.attempts...) {
		if a.exec == nil && !a.stranded {
			continue
		}
		if a.exec != nil {
			a.exec.Abort()
		}
		m.loseAttempt(a)
	}
	m.schedule()
}

// Submit enqueues a task; it becomes ready once its dependencies complete.
// A task whose dependency has already failed fails immediately without
// executing, exactly as if the failure were observed later.
func (m *Master) Submit(t *Task) {
	t.SubmittedAt = m.Eng.Now()
	t.State = TaskWaiting
	m.stats.Submitted++
	m.obs.TaskSubmitted()
	m.met.onSubmit(t)
	m.traceSubmit(t)
	m.armSpeculation()
	depFailed := false
	for _, dep := range t.DependsOn {
		switch dep.State {
		case TaskDone:
			// Satisfied; nothing to wait for.
		case TaskFailed:
			// Terminal: registering as a waiter would leave waitingOn
			// positive forever, since a failed task never notifies again.
			depFailed = true
		default:
			t.waitingOn++
			dep.waiters = append(dep.waiters, t)
		}
	}
	if depFailed {
		m.failDependent(t)
		return
	}
	if t.waitingOn == 0 {
		m.makeReady(t)
	}
}

// failDependent fails a waiting task whose dependency failed, without ever
// executing it — the DependencyError semantics of DAG frameworks. complete()
// propagates the failure transitively to the task's own dependents.
func (m *Master) failDependent(t *Task) {
	m.stats.DepFailed++
	m.met.onDepFail(t)
	m.traceDepFailed(t)
	m.complete(t, TaskFailed)
}

func (m *Master) makeReady(t *Task) {
	t.State = TaskReady
	m.obs.TaskReady()
	m.traceReady(t)
	if m.sched != nil {
		m.sched.taskReady(t)
	} else {
		m.ready = append(m.ready, t)
	}
	if m.onReady != nil {
		m.onReady()
	}
	m.schedule()
}

// schedule places as many ready tasks as possible. It defers to the end of
// the current dispatch round so that every same-timestamp burst — a wave of
// submissions, completions, or worker arrivals — coalesces into one pass
// instead of one pass per event.
func (m *Master) schedule() {
	if m.scheduling {
		return
	}
	m.scheduling = true
	if m.schedFn == nil {
		m.schedFn = func() {
			m.scheduling = false
			m.schedulePass()
		}
	}
	m.Eng.Defer(m.schedFn)
}

// schedulePass runs one scheduling round under the configured matcher.
func (m *Master) schedulePass() {
	if m.sched != nil {
		m.schedulePassIndexed()
		return
	}
	start := time.Now()
	st := &m.schedStats
	st.Passes++
	candBefore := st.CandidatesExamined
	tasksBefore := st.TasksExamined
	// Examine in the indexed matcher's (-Priority, readySeq) order: m.ready
	// is already in ready order, so a stable sort on priority suffices.
	sort.SliceStable(m.ready, func(i, j int) bool { return m.ready[i].Priority > m.ready[j].Priority })
	var remaining []*Task
	for _, t := range m.ready {
		if !m.place(t) {
			remaining = append(remaining, t)
		}
	}
	m.ready = remaining
	elapsed := time.Since(start)
	st.ElapsedNanos += elapsed.Nanoseconds()
	m.obs.SchedRound(int(st.TasksExamined-tasksBefore), int(st.CandidatesExamined-candBefore), 0)
	m.met.onSchedPass(st.CandidatesExamined-candBefore, elapsed)
}

// place finds a worker for one task, preferring cached inputs, and starts
// it. It reports whether the task was placed. This is the scan matcher's
// inner loop; the indexed matcher replaces it with schedState.examine.
func (m *Master) place(t *Task) bool {
	var dec alloc.Decision
	if t.retryNext != nil {
		dec = *t.retryNext
	} else {
		dec = m.Cfg.Strategy.Next(t.Category)
	}

	st := &m.schedStats
	st.TasksExamined++
	st.ScanTasksExamined++
	st.CandidatesExamined += int64(len(m.workers))
	st.ScanCandidatesExamined += int64(len(m.workers))
	var candidates []*Worker
	for _, w := range m.workers {
		if !w.alive || w.quarantined || !m.fitsOn(w, dec) {
			continue
		}
		candidates = append(candidates, w)
	}
	best := m.pick(t, candidates)
	if best == nil {
		return false
	}
	t.retryNext = nil
	m.startAttempt(t, best, dec, false)
	return true
}

// allocCapacity charges an attempt's request against a worker, keeping the
// utilization integrals and scheduler indexes current.
func (m *Master) allocCapacity(w *Worker, req monitor.Resources) {
	m.account()
	if w.alive {
		m.poolUsedCores += req.Cores
		m.obs.AllocCores(req.Cores)
	}
	w.usedCores += req.Cores
	w.usedMemMB += req.MemoryMB
	w.usedDiskMB += req.DiskMB
	w.running++
	m.telem.NodeAlloc(w.Node.ID, req)
	if m.sched != nil {
		m.sched.capacityChanged(w, false)
	}
}

// releaseCapacity returns an attempt's request to its worker. The freed
// capacity marks the worker dirty so the next round re-examines blocked
// tasks against it.
func (m *Master) releaseCapacity(w *Worker, req monitor.Resources) {
	m.account()
	if w.alive {
		// Removed workers already surrendered their whole allocation when
		// they left the pool aggregates; only live releases adjust them.
		m.poolUsedCores -= req.Cores
		m.obs.AllocCores(-req.Cores)
	}
	w.usedCores -= req.Cores
	w.usedMemMB -= req.MemoryMB
	w.usedDiskMB -= req.DiskMB
	w.running--
	m.telem.NodeAlloc(w.Node.ID, monitor.Resources{
		Cores: -req.Cores, MemoryMB: -req.MemoryMB, DiskMB: -req.DiskMB,
	})
	if m.sched != nil {
		m.sched.capacityChanged(w, true)
	}
}

func (m *Master) fitsOn(w *Worker, dec alloc.Decision) bool {
	if dec.WholeNode {
		return w.running == 0
	}
	req := dec.Request
	if req.Cores <= 0 {
		req.Cores = 1
	}
	return req.Fits(w.free())
}

// effectiveRequest is what the task occupies on the worker.
func effectiveRequest(w *Worker, dec alloc.Decision) monitor.Resources {
	if dec.WholeNode {
		return monitor.Resources{Cores: w.Node.Cores, MemoryMB: w.Node.MemoryMB, DiskMB: w.Node.DiskMB}
	}
	req := dec.Request
	if req.Cores <= 0 {
		req.Cores = 1
	}
	return req
}

// newAttempt carves an attempt record from the chunked slab, so a million
// placements cost thousands of allocations rather than a million. Records
// are never recycled within a run — chunks become collectable as the
// attempts in them reach terminal states and drop out of the worker and
// task lists.
func (m *Master) newAttempt() *attempt {
	if len(m.attemptSlab) == 0 {
		m.attemptSlab = make([]attempt, 512)
	}
	a := &m.attemptSlab[0]
	m.attemptSlab = m.attemptSlab[1:]
	return a
}

// startAttempt runs one placement: stage inputs, execute under the LFM,
// return outputs, then release and account. Speculative attempts skip the
// task-level bookkeeping (state, attempt count, wait times) of the original.
func (m *Master) startAttempt(t *Task, w *Worker, dec alloc.Decision, speculative bool) {
	a := m.newAttempt()
	*a = attempt{
		t: t, w: w, dec: dec, speculative: speculative,
		placedAt: m.Eng.Now(),
		span:     trace.NoSpan, phase: trace.NoSpan,
	}
	if !speculative {
		t.State = TaskRunning
		t.Attempts++
	}
	m.obs.TaskPlaced(t.Category, speculative, t.Attempts, a.placedAt-t.SubmittedAt)
	m.met.onPlace()
	req := effectiveRequest(w, dec)
	a.req = req
	m.allocCapacity(w, req)
	w.attempts = append(w.attempts, a)
	t.active = append(t.active, a)
	if w.usedCores > m.stats.PeakCoresUsed {
		m.stats.PeakCoresUsed = w.usedCores
	}

	m.tracePlaced(a)
	m.stageInputs(a, 0, func() {
		if a.done {
			return // cancelled or failed while inputs were in flight
		}
		if !w.alive {
			// The worker vanished while inputs were in flight.
			m.loseAttempt(a)
			return
		}
		if w.dead {
			// The worker crashed but the master has not suspected it yet:
			// the attempt strands until heartbeat suspicion recovers it.
			a.stranded = true
			return
		}
		a.started = true
		a.execStart = m.Eng.Now()
		if !speculative {
			t.StartedAt = a.execStart
			m.stats.WaitTimes.Add(float64(t.StartedAt - t.SubmittedAt))
			m.met.onStart(t)
		}
		limits := monitor.Resources{}
		if !dec.Monitorless {
			limits = req
		}
		spec := t.Spec
		if w.slow > 1 {
			spec = t.Spec.ScaleTime(w.slow)
		}
		tst, execSpan := m.traceExecStart(a)
		var obs monitor.Observer
		if m.telem != nil {
			a.rec = m.telem.StartAttempt(t.ID, t.Attempts, speculative, t.Category, w.Node.ID, req)
			obs = a.rec.Observe
		}
		a.exec = m.lfm.RunObserved(spec, limits, tst, execSpan, obs, func(rep monitor.Report) {
			a.done = true
			w.dropAttempt(a)
			t.dropActive(a)
			m.obs.AttemptEnded(a.speculative)
			t.Report = rep
			m.Cfg.Strategy.Observe(t.Category, rep)
			if m.sched != nil {
				m.sched.strategyObserved(t.Category)
			}
			m.categories.observe(t.Category, rep)
			m.telem.FinishAttempt(a.rec, rep)
			m.met.onReport(t, rep)
			m.traceExecEnd(a, rep)
			if rep.Completed {
				// First result wins: cancel the losing copies.
				t.StartedAt = a.execStart
				w.consecFails, w.probationRound = 0, 0
				if a.speculative {
					m.stats.resilience().SpecWins++
					m.met.onSpecWin()
				}
				for _, o := range append([]*attempt(nil), t.active...) {
					m.cancelAttempt(o)
				}
			}
			m.sendOutputs(t, rep.Completed, func() {
				if rep.Completed {
					m.stats.UsedCoreSeconds.Add(rep.Peak.Cores * float64(rep.WallTime))
				}
				m.releaseCapacity(w, req)
				m.traceAttemptDone(a, rep)
				if rep.Completed || len(t.active) == 0 {
					m.finishAttempt(t, rep)
				}
				// Otherwise this attempt exhausted its allocation while a
				// copy still races; drop it and let the copy decide.
				m.schedule()
			})
		})
	})
}

// stageInputs transfers (and unpacks) each input not already cached.
func (m *Master) stageInputs(a *attempt, i int, done func()) {
	t, w := a.t, a.w
	if i >= len(t.Inputs) {
		done()
		return
	}
	f := t.Inputs[i]
	st := m.st()
	cont := func() { m.stageInputs(a, i+1, done) }
	if w.cache[f.Name] {
		m.stats.CacheHits++
		m.met.onCacheHit()
		if a.phase != trace.NoSpan {
			st.Instant(trace.Span{
				Kind: stageKind(f), Parent: a.phase,
				Task: t.ID, Category: t.Category, Worker: w.Node.ID,
				Outcome: trace.OutcomeCacheHit, Detail: f.Name,
			}, m.Eng.Now())
		}
		cont()
		return
	}
	if f.Cacheable {
		if waiters, inflight := w.staging[f.Name]; inflight {
			// Another task is already pulling this file to the worker;
			// piggyback on its transfer.
			m.stats.CacheHits++
			m.met.onCacheHit()
			wake := cont
			fail := func() { m.failStaging(a, f) }
			if a.phase != trace.NoSpan {
				shared := st.Begin(trace.Span{
					Kind: stageKind(f), Parent: a.phase,
					Task: t.ID, Category: t.Category, Worker: w.Node.ID,
					Detail: f.Name, Start: m.Eng.Now(),
				})
				wake = func() {
					st.End(shared, m.Eng.Now(), trace.OutcomeShared, "")
					cont()
				}
				fail = func() {
					st.End(shared, m.Eng.Now(), trace.OutcomeFailed, "transfer failed")
					m.failStaging(a, f)
				}
			}
			w.staging[f.Name] = append(waiters, stagingWaiter{ok: wake, fail: fail})
			return
		}
		w.staging[f.Name] = nil
	}
	m.transferFile(a, f, 0, cont)
}

// transferFile moves one input over the master link onto the worker's disk,
// retrying injected transfer failures under exponential backoff and failing
// the attempt (plus any piggybacked waiters) once retries are exhausted.
func (m *Master) transferFile(a *attempt, f *File, try int, cont func()) {
	t, w := a.t, a.w
	st := m.st()
	m.stats.CacheMisses++
	m.stats.BytesIn += f.SizeBytes
	m.met.onTransferIn(f.SizeBytes)
	fsp := trace.NoSpan
	if a.phase != trace.NoSpan {
		fsp = st.Begin(trace.Span{
			Kind: stageKind(f), Parent: a.phase,
			Task: t.ID, Category: t.Category, Worker: w.Node.ID,
			Detail: f.Name, Start: m.Eng.Now(),
		})
	}
	xfer := func() {
		m.link.Transfer(float64(f.SizeBytes), func() {
			w.Node.Disk.Write(f.SizeBytes, func() {
				if m.stageFault != nil && w.alive && !w.dead && m.stageFault(w, f) {
					st.End(fsp, m.Eng.Now(), trace.OutcomeFailed, "transfer failed")
					m.retryStaging(a, f, try, cont)
					return
				}
				after := func() {
					st.End(fsp, m.Eng.Now(), trace.OutcomeOK, "")
					if f.Cacheable {
						w.cache[f.Name] = true
						w.cacheBytes += f.SizeBytes
						if m.sched != nil {
							m.sched.cacheAdded(w, f)
						}
						waiters := w.staging[f.Name]
						delete(w.staging, f.Name)
						for _, wake := range waiters {
							wake.ok()
						}
					}
					cont()
				}
				if f.UnpackTime > 0 {
					m.Eng.After(f.UnpackTime, after)
				} else {
					after()
				}
			})
		})
	}
	if m.stageDelay != nil {
		if d := m.stageDelay(f); d > 0 {
			m.Eng.After(d, xfer)
			return
		}
	}
	xfer()
}

func (m *Master) sendOutputs(t *Task, completed bool, done func()) {
	if !completed || t.OutputBytes == 0 {
		done()
		return
	}
	m.stats.BytesOut += t.OutputBytes
	m.met.onTransferOut(t.OutputBytes)
	m.link.Transfer(float64(t.OutputBytes), done)
}

// finishAttempt decides between completion, retry, and failure.
func (m *Master) finishAttempt(t *Task, rep monitor.Report) {
	if rep.Completed {
		m.stats.ExecTimes.Add(float64(rep.WallTime))
		m.met.onExec(rep.WallTime)
		m.complete(t, TaskDone)
		return
	}
	// Resource exhaustion: ask the strategy for a bigger allocation.
	if t.Attempts > m.Cfg.MaxRetries {
		t.spans.failDetail = "retries exhausted"
		m.complete(t, TaskFailed)
		return
	}
	m.stats.Retries++
	m.obs.RetryCharged()
	m.met.onRetry()
	dec := m.Cfg.Strategy.Retry(t.Category, t.Attempts)
	if m.sched != nil {
		m.sched.strategyObserved(t.Category)
	}
	t.retryNext = &dec
	m.makeReady(t)
}

func (m *Master) complete(t *Task, state TaskState) {
	t.State = state
	t.FinishedAt = m.Eng.Now()
	m.obs.TaskFinished(t.Category, state == TaskFailed, t.FinishedAt-t.SubmittedAt)
	m.traceComplete(t, state)
	if state == TaskDone {
		m.stats.Completed++
		m.met.onDone(t)
	} else {
		m.stats.Failed++
		m.met.onFail(t)
	}
	// Release dependents — or, if this task failed, fail them without
	// executing (cascading through complete() for their own dependents).
	waiters := t.waiters
	t.waiters = nil
	for _, dep := range waiters {
		dep.waitingOn--
		if dep.State != TaskWaiting {
			continue // already failed via another failed dependency
		}
		if state == TaskFailed {
			m.failDependent(dep)
		} else if dep.waitingOn == 0 {
			m.makeReady(dep)
		}
	}
	if m.onDone != nil {
		m.onDone(t)
	}
	m.drainCheck()
}

// QueueLen reports ready tasks not yet placed.
func (m *Master) QueueLen() int {
	if m.sched != nil {
		return m.sched.queueLen()
	}
	return len(m.ready)
}

// CheckInvariants verifies the master drained cleanly: every submitted task
// reached a terminal state, no attempt leaked on any worker, all worker
// capacity was released, and (under the indexed matcher) every scheduler
// index agrees with ground truth. It is the safety net behind chaos runs.
func (m *Master) CheckInvariants() error {
	st := &m.stats
	if st.Completed+st.Failed != st.Submitted {
		return fmt.Errorf("wq: %d submitted but %d completed + %d failed",
			st.Submitted, st.Completed, st.Failed)
	}
	if n := m.QueueLen(); n != 0 {
		return fmt.Errorf("wq: %d tasks stuck in the ready queue", n)
	}
	if m.sched != nil {
		if err := m.sched.check(); err != nil {
			return err
		}
	}
	for _, w := range m.workers {
		if len(w.attempts) != 0 {
			return fmt.Errorf("wq: worker %d leaked %d attempts", w.Node.ID, len(w.attempts))
		}
		if w.running != 0 {
			return fmt.Errorf("wq: worker %d still accounts %d running tasks", w.Node.ID, w.running)
		}
		if w.usedCores > 1e-9 || w.usedMemMB > 1e-9 || w.usedDiskMB > 1e-9 {
			return fmt.Errorf("wq: worker %d leaked capacity %v", w.Node.ID, monitor.Resources{
				Cores: w.usedCores, MemoryMB: w.usedMemMB, DiskMB: w.usedDiskMB})
		}
	}
	// With a snapshot bus attached, its pushed counters must agree with the
	// master's ground truth — the streaming plane's own invariant.
	if err := m.obs.CheckConsistency(); err != nil {
		return err
	}
	return nil
}

// String renders a short status line.
func (m *Master) String() string {
	return fmt.Sprintf("wq: %d workers, %d ready, %d/%d done",
		len(m.workers), m.QueueLen(), m.stats.Completed, m.stats.Submitted)
}
