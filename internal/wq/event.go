package wq

import (
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// evKind names one lifecycle transition of the master.
type evKind uint8

const (
	evJoin          evKind = iota // w connected
	evLeave                       // w disconnected
	evSubmit                      // t submitted
	evDepFail                     // t failed because a dependency failed
	evReady                       // t entered the ready queue
	evPlaced                      // a charged to its worker, inputs about to stage
	evExecStart                   // a's inputs staged, execution starting
	evReport                      // a's monitor reported rep
	evAttemptDone                 // a's outputs returned (or none), capacity released
	evLost                        // a's worker vanished
	evCancelled                   // a lost the first-result-wins race
	evStagingFailed               // a's transfer of f failed for good
	evCacheHit                    // f served from w's cache or an in-flight copy
	evTransferIn                  // f sent to a's worker
	evTransferOut                 // t's outputs sent back
	evRetry                       // t requeued under a bigger allocation
	evComplete                    // t reached TaskDone or TaskFailed
	evSuspect                     // w suspected dead after d of silence
	evStagingRetry                // a failed transfer retried under backoff
	evQuarantine                  // w quarantined for probation d
	evSpecLaunch                  // a speculative copy launched
	evSchedPass                   // one matching round examined n candidates
	evFlatline                    // a flatlined: usage frozen for d, category mean wall time mean
)

// event is one lifecycle transition. Only the fields its kind names are
// set; the sinks read the rest of what they need from the task, attempt
// and worker.
type event struct {
	kind evKind
	t    *Task
	a    *attempt
	w    *Worker
	f    *File
	rep  *monitor.Report
	n    int64
	d    sim.Time
	mean float64
}

// emit announces a transition to every attached sink. The sinks are a
// fixed list, each nil-safe, and none keeps e, so an emit allocates
// nothing. Telemetry runs before span recording, as both may write the
// trace store.
func (m *Master) emit(e event) {
	m.met.on(&e)
	telemetryOn(m.telem, &e)
	obsOn(m.obs, &e)
	m.trace.on(&e, m.Eng.Now())
}
