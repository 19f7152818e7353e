package wq

import "lfm/internal/obs"

// SetObs attaches a snapshot bus. At each cadence boundary the bus reads
// the master's counts through the Truth source installed here — every one
// an O(1) read of state the master keeps anyway — and the master pushes
// only the per-task latency observations nothing else records. Each
// snapshot first folds the monitors' polls up to its boundary (SyncPolls),
// so the anomaly count telemetry takes from them is exact. Recording is
// strictly passive: no events are scheduled and no decision path reads the
// bus, so an obs-enabled run places, traces, and completes byte-identically
// to a bare one. Attach before workers join or tasks submit; a nil bus
// detaches.
func (m *Master) SetObs(b *obs.Bus) {
	m.obs = b
	b.SetSync(m.SyncPolls)
	b.SetTruth(func() obs.Truth {
		st := &m.schedStats
		t := obs.Truth{
			QueueDepth:         m.QueueLen(),
			Running:            m.running,
			Speculating:        m.speculating,
			WorkersAlive:       len(m.workers),
			WorkersQuarantined: m.quarantined,
			PoolCores:          m.poolCores,
			AllocatedCores:     m.poolUsedCores,
			Submitted:          m.stats.Submitted,
			Completed:          m.stats.Completed,
			Failed:             m.stats.Failed,
			Retries:            m.stats.Retries,
			Anomalies:          m.telem.AnomalyCount(),
			Sched: obs.SchedDelta{
				Passes: st.Passes, Tasks: st.TasksExamined,
				Candidates: st.CandidatesExamined, Wakes: st.BlockedWakes,
			},
		}
		if m.sched != nil {
			t.Blocked = m.sched.nblocked
		}
		if rs := m.stats.Resilience; rs != nil {
			t.QuarantineTrips = rs.Quarantines
		}
		return t
	})
}

// obsOn pushes the latency observations: submit to first placement, and
// submit to successful completion.
func obsOn(b *obs.Bus, e *event) {
	if b == nil {
		return
	}
	switch e.kind {
	case evPlaced:
		if a := e.a; !a.speculative && a.t.Attempts == 1 {
			b.TaskPlaced(a.t.Category, a.placedAt-a.t.SubmittedAt)
		}
	case evComplete:
		if t := e.t; t.State == TaskDone {
			b.TaskFinished(t.Category, t.FinishedAt-t.SubmittedAt)
		}
	}
}
