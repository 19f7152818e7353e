package wq

import (
	"fmt"
	"math"

	"lfm/internal/sim"
	"lfm/internal/trace"
)

// ResilienceConfig tunes the master's failure-domain behaviour. Every
// feature is off in the zero value, in which case the master behaves exactly
// as it did before this config existed: worker losses are learned
// omnisciently (RemoveWorker), stragglers run to completion, failing workers
// keep receiving work, and a staging fault kills the attempt outright.
type ResilienceConfig struct {
	// HeartbeatInterval enables heartbeat-based failure detection: workers
	// beat every interval and a crashed worker is only suspected (and its
	// tasks recovered) SuspicionTimeout after its last beat. Zero keeps the
	// omniscient instant-detection model.
	HeartbeatInterval sim.Time
	// SuspicionTimeout is the silence after the last heartbeat before the
	// master declares a worker dead. Default 3x HeartbeatInterval.
	SuspicionTimeout sim.Time

	// SpeculationMultiplier enables straggler mitigation: when a task has run
	// longer than Multiplier times its category's mean wall time, a backup
	// copy is launched on another worker and the first result wins. Zero
	// disables speculation.
	SpeculationMultiplier float64
	// SpeculationMinSamples is how many completed reports a category needs
	// before its mean is trusted. Default 3.
	SpeculationMinSamples int
	// SpeculationInterval is the scan period for stragglers. Default 5s.
	SpeculationInterval sim.Time
	// MaxSpeculative caps backup copies per task. Default 1.
	MaxSpeculative int

	// QuarantineThreshold enables the worker circuit breaker: after this
	// many consecutive worker-attributed failures (staging-retry exhaustion)
	// the worker stops receiving placements for a probation period. Zero
	// disables quarantine.
	QuarantineThreshold int
	// QuarantineProbation is the first quarantine duration; it doubles on
	// every subsequent trip of the same worker. Default 60s.
	QuarantineProbation sim.Time

	// StagingRetries is how many times a failed input transfer is retried
	// (under StagingBackoff) before the attempt is failed. Zero fails the
	// attempt on the first fault.
	StagingRetries int
	// StagingBackoff shapes the retry delay. Base defaults to 500ms.
	StagingBackoff sim.Backoff
}

// fillDefaults resolves dependent defaults for the enabled features only, so
// a zero config stays exactly zero.
func (r *ResilienceConfig) fillDefaults() {
	if r.HeartbeatInterval > 0 && r.SuspicionTimeout <= 0 {
		r.SuspicionTimeout = 3 * r.HeartbeatInterval
	}
	if r.SpeculationMultiplier > 0 {
		if r.SpeculationMinSamples <= 0 {
			r.SpeculationMinSamples = 3
		}
		if r.SpeculationInterval <= 0 {
			r.SpeculationInterval = 5 * sim.Second
		}
		if r.MaxSpeculative <= 0 {
			r.MaxSpeculative = 1
		}
	}
	if r.QuarantineThreshold > 0 && r.QuarantineProbation <= 0 {
		r.QuarantineProbation = 60 * sim.Second
	}
	if r.StagingRetries > 0 && r.StagingBackoff.Base <= 0 {
		r.StagingBackoff.Base = 500 * sim.Millisecond
	}
}

// CrashWorker kills a worker's node abruptly, the fault a chaos schedule
// injects. With heartbeats disabled the master learns instantly — identical
// to RemoveWorker, the omniscient pre-heartbeat model. With heartbeats
// enabled the node silently goes dark: its running processes die, staged
// work strands, new placements keep landing on it, and the master only
// recovers anything when the suspicion timeout expires after the last
// heartbeat the worker ever sent. The gap is the real price of detection.
func (m *Master) CrashWorker(w *Worker) {
	r := m.Cfg.Resilience
	if r.HeartbeatInterval <= 0 {
		m.RemoveWorker(w)
		return
	}
	if !w.alive || w.dead {
		return
	}
	now := m.Eng.Now()
	w.dead = true
	w.diedAt = now
	// Processes running on the node die with it; their monitor callbacks
	// never fire. The master's accounting still charges the allocations
	// until suspicion frees them.
	for _, a := range append([]*attempt(nil), w.attempts...) {
		if a.exec != nil {
			a.exec.Abort()
		}
	}
	// The last heartbeat was the most recent interval tick, so suspicion
	// fires lastBeat+timeout and detection latency lands in
	// (timeout - interval, timeout].
	ticks := math.Floor(float64(now-w.joinedAt) / float64(r.HeartbeatInterval))
	lastBeat := w.joinedAt + sim.Time(ticks)*r.HeartbeatInterval
	suspectAt := lastBeat + r.SuspicionTimeout
	if suspectAt < now {
		suspectAt = now
	}
	w.suspectEv = m.Eng.At(suspectAt, func() { m.suspectWorker(w) })
}

// suspectWorker declares a silent worker dead: it records the detection
// latency and hands recovery to RemoveWorker.
func (m *Master) suspectWorker(w *Worker) {
	if !w.alive {
		return
	}
	latency := m.Eng.Now() - w.diedAt
	rs := m.stats.resilience()
	rs.DetectionDelays.Add(float64(latency))
	m.met.onSuspect(latency)
	if st := m.st(); st != nil {
		st.Instant(trace.Span{
			Kind: trace.KindSuspect, Task: -1, Worker: w.Node.ID,
			Outcome: trace.OutcomeOK,
			Detail:  fmt.Sprintf("silent for %.1fs", float64(latency)),
		}, m.Eng.Now())
	}
	m.RemoveWorker(w)
}

// SlowWorker stretches the runtime of executions subsequently started on the
// worker by factor (straggler injection). A factor <= 1 restores full speed.
func (m *Master) SlowWorker(w *Worker, factor float64) { w.slow = factor }

// SetStagingFault installs (or, with nil, removes) a fault-injection hook
// consulted after each staging transfer lands: returning true fails the
// transfer, which is retried under the configured backoff.
func (m *Master) SetStagingFault(fn func(*Worker, *File) bool) {
	m.stageFault = fn
	if fn != nil && m.resRNG == nil {
		m.resRNG = m.Eng.RNG().Fork()
	}
}

// SetStageDelay installs (or, with nil, removes) a hook that stalls each
// staging transfer before it starts (fault injection: congested or degraded
// master link).
func (m *Master) SetStageDelay(fn func(*File) sim.Time) { m.stageDelay = fn }

// SetKillDelay forwards a kill-latency hook to the LFM: enforcement kills
// are deferred by the returned duration, leaving a zombie consuming its
// allocation (fault injection: kill failures).
func (m *Master) SetKillDelay(fn func() sim.Time) { m.lfm.SetKillDelay(fn) }

// retryStaging handles a failed staging transfer: retry under backoff while
// budget remains, otherwise fail this attempt and everyone piggybacking on
// the same transfer, charging the worker's circuit breaker.
func (m *Master) retryStaging(a *attempt, f *File, try int, cont func()) {
	r := m.Cfg.Resilience
	rs := m.stats.resilience()
	if try < r.StagingRetries {
		rs.StagingRetries++
		m.met.onStagingRetry()
		m.Eng.After(r.StagingBackoff.Delay(try, m.resRNG), func() {
			if a.done {
				return
			}
			if !a.w.alive {
				m.loseAttempt(a)
				return
			}
			if a.w.dead {
				a.stranded = true
				return
			}
			m.transferFile(a, f, try+1, cont)
		})
		return
	}
	w := a.w
	waiters := w.staging[f.Name]
	delete(w.staging, f.Name)
	m.failStaging(a, f)
	for _, wt := range waiters {
		wt.fail()
	}
	m.workerAttemptFailed(w)
}

// failStaging terminates an attempt whose input transfer failed for good.
// The failure is the worker's fault, not the task's, but it still consumes
// the task's retry budget so that a hostile fault schedule cannot make a
// task bounce forever.
func (m *Master) failStaging(a *attempt, f *File) {
	if a.done {
		return
	}
	m.endAttempt(a)
	t := a.t
	m.releaseAttempt(a)
	rs := m.stats.resilience()
	rs.StagingFailures++
	m.met.onStagingFailure()
	m.traceStagingFailed(a, f)
	if a.speculative {
		rs.SpecCancelled++
		m.met.onSpecCancel()
	}
	if len(t.active) > 0 || t.State != TaskRunning {
		m.schedule()
		return
	}
	if t.Attempts > m.Cfg.MaxRetries {
		t.spans.failDetail = "staging failures exhausted retries"
		m.complete(t, TaskFailed)
		m.schedule()
		return
	}
	dec := a.dec
	t.retryNext = &dec
	m.makeReady(t)
}

// loseAttempt accounts one placement lost to a vanished worker and requeues
// the task if this was its last in-flight attempt. The attempt does not
// count against the exhaustion retry budget, and no capacity is released —
// the worker is gone, and its node's books with it.
func (m *Master) loseAttempt(a *attempt) {
	if a.done {
		return
	}
	m.endAttempt(a)
	t := a.t
	if !a.speculative {
		t.Attempts--
	}
	m.stats.LostTasks++
	m.met.onLost()
	m.telem.AbortAttempt(a.rec, "lost")
	m.traceAttemptLost(a)
	if a.speculative {
		rs := m.stats.resilience()
		rs.SpecCancelled++
		m.met.onSpecCancel()
	}
	if len(t.active) == 0 && t.State == TaskRunning {
		m.makeReady(t)
	}
}

// cancelAttempt terminates an attempt that lost the first-result-wins race:
// its process is aborted, its allocation released, and the core-time it
// burned charged to speculation waste.
func (m *Master) cancelAttempt(a *attempt) {
	if a.done {
		return
	}
	m.endAttempt(a)
	if a.exec != nil {
		a.exec.Abort()
	}
	m.releaseAttempt(a)
	rs := m.stats.resilience()
	if a.speculative {
		rs.SpecCancelled++
		m.met.onSpecCancel()
	}
	if a.started {
		rs.SpecWasteSeconds += a.req.Cores * float64(m.Eng.Now()-a.execStart)
	}
	m.telem.AbortAttempt(a.rec, "cancelled")
	m.traceAttemptCancelled(a)
	m.schedule()
}

// endAttempt retires an attempt that reached a terminal state: it leaves
// its worker's and task's lists and the running counts.
func (m *Master) endAttempt(a *attempt) {
	a.done = true
	a.w.dropAttempt(a)
	a.t.dropActive(a)
	if a.speculative {
		m.speculating--
	} else {
		m.running--
	}
}

// releaseAttempt frees an attempt's allocation on its (still-live) worker.
func (m *Master) releaseAttempt(a *attempt) {
	m.releaseCapacity(a.w, a.req)
}

// workerAttemptFailed advances the quarantine circuit breaker after a
// worker-attributed failure; on the Nth consecutive one the worker stops
// receiving placements for a probation period that doubles per trip.
func (m *Master) workerAttemptFailed(w *Worker) {
	thr := m.Cfg.Resilience.QuarantineThreshold
	if thr <= 0 || !w.alive || w.quarantined {
		return
	}
	w.consecFails++
	if w.consecFails < thr {
		return
	}
	w.quarantined = true
	m.quarantined++
	if m.sched != nil {
		m.sched.exclude(w)
	}
	rs := m.stats.resilience()
	rs.Quarantines++
	m.met.onQuarantine(w)
	probation := m.Cfg.Resilience.QuarantineProbation
	for i := 0; i < w.probationRound; i++ {
		probation *= 2
	}
	w.probationRound++
	if st := m.st(); st != nil {
		st.Instant(trace.Span{
			Kind: trace.KindQuarantine, Task: -1, Worker: w.Node.ID,
			Outcome: trace.OutcomeOK,
			Detail:  fmt.Sprintf("%d consecutive failures, probation %.0fs", w.consecFails, float64(probation)),
		}, m.Eng.Now())
	}
	w.probationEv = m.Eng.After(probation, func() {
		w.probationEv = sim.Event{}
		if !w.alive {
			return
		}
		w.quarantined = false
		m.quarantined--
		w.consecFails = 0
		if m.sched != nil {
			m.sched.admit(w)
		}
		m.met.onQuarantineEnd(w)
		m.schedule()
	})
}

// armSpeculation schedules the next straggler scan if speculation is on and
// none is pending.
func (m *Master) armSpeculation() {
	r := m.Cfg.Resilience
	if r.SpeculationMultiplier <= 0 || m.specArmed {
		return
	}
	m.specArmed = true
	m.specEv = m.Eng.After(r.SpeculationInterval, m.speculationTick)
}

// speculationTick scans running attempts for stragglers — attempts older
// than Multiplier times their category's mean wall time — and launches a
// backup copy for each. The scan goes quiet when the queue drains and is
// re-armed by the next Submit.
func (m *Master) speculationTick() {
	m.specArmed = false
	m.specEv = sim.Event{}
	if m.stats.Submitted > 0 && m.stats.Completed+m.stats.Failed >= m.stats.Submitted {
		return
	}
	r := m.Cfg.Resilience
	now := m.Eng.Now()
	for _, w := range append([]*Worker(nil), m.workers...) {
		for _, a := range append([]*attempt(nil), w.attempts...) {
			if a.done || a.speculative || !a.started {
				continue
			}
			t := a.t
			if len(t.active) != 1 || t.specCount >= r.MaxSpeculative {
				continue
			}
			// Telemetry's flatline detector is a data-grounded fast path: an
			// attempt whose usage froze well past its category's typical wall
			// time speculates without waiting for the mean-multiplier rule.
			if !m.telem.Flatlined(a.rec, now) {
				cs := m.categories.byCat[t.Category]
				if cs == nil || cs.WallTimes.N() < r.SpeculationMinSamples {
					continue
				}
				mean := cs.WallTimes.Mean()
				if mean <= 0 || float64(now-a.execStart) < r.SpeculationMultiplier*mean {
					continue
				}
			}
			m.speculate(a)
		}
	}
	m.armSpeculation()
}

// speculate launches a backup copy of a straggling attempt on a different
// worker under the same allocation; the first result wins. Both matchers
// resolve the same worker: the indexed search excluding the straggler's
// host is the scan's filter-then-pick.
func (m *Master) speculate(a *attempt) {
	t := a.t
	var best *Worker
	if m.sched != nil {
		best, _ = m.sched.selectWorker(t, a.dec, a.w)
	} else {
		var candidates []*Worker
		for _, w := range m.workers {
			if w == a.w || !w.alive || w.quarantined || !m.fitsOn(w, a.dec) {
				continue
			}
			candidates = append(candidates, w)
		}
		best = m.pick(t, candidates)
	}
	if best == nil {
		return
	}
	t.specCount++
	m.stats.resilience().SpecLaunched++
	m.met.onSpecLaunch()
	m.startAttempt(t, best, a.dec, true)
}

// drainCheck cancels housekeeping timers (straggler scans, quarantine
// probations) once the queue drains, so they do not stretch the simulated
// makespan past the last real event. Quarantined workers are re-admitted —
// the run is over, there is nothing left to protect. Submit re-arms the
// straggler scan.
func (m *Master) drainCheck() {
	if m.stats.Completed+m.stats.Failed < m.stats.Submitted {
		return
	}
	if !m.specEv.Cancelled() {
		m.Eng.Cancel(m.specEv)
		m.specEv = sim.Event{}
		m.specArmed = false
	}
	for _, w := range m.workers {
		if !w.probationEv.Cancelled() {
			m.Eng.Cancel(w.probationEv)
			w.probationEv = sim.Event{}
			if w.quarantined {
				m.quarantined--
			}
			w.quarantined = false
			w.consecFails = 0
			if m.sched != nil {
				m.sched.admit(w)
			}
			m.met.onQuarantineEnd(w)
		}
	}
}
