package wq

import (
	"strconv"

	"lfm/internal/metrics"
	"lfm/internal/monitor"
)

// SetMetrics attaches a metrics registry to the master: pool and queue gauges
// are registered immediately and the hot paths (placement, staging, transfer,
// completion) update counters and histograms from then on. Call it before
// submitting work; nil detaches. Runs without a registry pay only a nil check
// per transition.
func (m *Master) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		m.met = nil
		return
	}
	m.met = newMasterMetrics(m, reg)
}

// masterMetrics holds the master's registry instruments. Its on method is
// nil-safe so uninstrumented masters skip straight through.
type masterMetrics struct {
	reg *metrics.Registry

	placements *metrics.Counter
	retries    *metrics.Counter
	lost       *metrics.Counter
	cacheHits  *metrics.Counter
	cacheMiss  *metrics.Counter
	bytesIn    *metrics.Counter
	bytesOut   *metrics.Counter

	waitSeconds *metrics.Histogram
	execSeconds *metrics.Histogram

	// Instruments registered lazily, each at its first event so the
	// registry's order matches the order events happen in, then updated
	// through the cached handle.
	categories map[string]*categoryMetrics // by category label value
	rounds     *metrics.Counter
	candidates *metrics.Histogram
}

// categoryMetrics are one category's instruments, each nil until its
// first event.
type categoryMetrics struct {
	label                                    metrics.Label
	submitted, completed, failed, depFailed  *metrics.Counter
	peakMem, peakCores, peakDisk, timeToPeak *metrics.Histogram
}

func newMasterMetrics(m *Master, reg *metrics.Registry) *masterMetrics {
	reg.Help("wq_queue_depth", "ready tasks not yet placed on a worker")
	reg.Help("wq_workers", "connected pilot workers")
	reg.Help("wq_tasks_running", "tasks currently executing on workers")
	reg.Help("wq_cores_allocated", "cores allocated to running tasks across the pool")
	reg.Help("wq_cores_total", "cores provisioned across the pool")
	reg.Help("wq_cache_hit_ratio", "fraction of input stagings served from worker caches")
	reg.Help("wq_tasks_submitted_total", "tasks submitted to the master, by category")
	reg.Help("wq_tasks_completed_total", "tasks completed successfully, by category")
	reg.Help("wq_tasks_failed_total", "tasks failed for good, by category")
	reg.Help("wq_tasks_dep_failed_total", "tasks failed without executing because a dependency failed, by category")
	reg.Help("wq_placements_total", "task attempts started on workers")
	reg.Help("wq_retries_total", "resource-exhaustion retries")
	reg.Help("wq_tasks_lost_total", "task attempts lost to disconnected workers")
	reg.Help("wq_bytes_in_total", "bytes transferred master to workers")
	reg.Help("wq_bytes_out_total", "bytes transferred workers to master")
	reg.Help("wq_task_wait_seconds", "submit to first-execution latency")
	reg.Help("wq_task_exec_seconds", "wall time of successful attempts")
	reg.Help("wq_worker_cores_used", "cores allocated on one worker")
	reg.Help("wq_worker_cores_free", "cores free on one worker")

	reg.GaugeFunc("wq_queue_depth", func() float64 { return float64(m.QueueLen()) })
	reg.GaugeFunc("wq_workers", func() float64 { return float64(len(m.workers)) })
	reg.GaugeFunc("wq_tasks_running", func() float64 {
		n := 0
		for _, w := range m.workers {
			n += w.running
		}
		return float64(n)
	})
	reg.GaugeFunc("wq_cores_allocated", func() float64 {
		var c float64
		for _, w := range m.workers {
			c += w.usedCores
		}
		return c
	})
	reg.GaugeFunc("wq_cores_total", func() float64 {
		var c float64
		for _, w := range m.workers {
			c += w.Node.Cores
		}
		return c
	})
	reg.GaugeFunc("wq_cache_hit_ratio", func() float64 {
		total := m.stats.CacheHits + m.stats.CacheMisses
		if total == 0 {
			return 0
		}
		return float64(m.stats.CacheHits) / float64(total)
	})

	return &masterMetrics{
		reg:         reg,
		placements:  reg.Counter("wq_placements_total"),
		retries:     reg.Counter("wq_retries_total"),
		lost:        reg.Counter("wq_tasks_lost_total"),
		cacheHits:   reg.Counter("wq_cache_hits_total"),
		cacheMiss:   reg.Counter("wq_cache_misses_total"),
		bytesIn:     reg.Counter("wq_bytes_in_total"),
		bytesOut:    reg.Counter("wq_bytes_out_total"),
		waitSeconds: reg.Histogram("wq_task_wait_seconds", metrics.DefTimeBuckets()),
		execSeconds: reg.Histogram("wq_task_exec_seconds", metrics.DefTimeBuckets()),
		categories:  make(map[string]*categoryMetrics),
	}
}

// category returns the task's category instruments.
func (mm *masterMetrics) category(t *Task) *categoryMetrics {
	c := t.Category
	if c == "" {
		c = "default"
	}
	cm := mm.categories[c]
	if cm == nil {
		cm = &categoryMetrics{label: metrics.L("category", c)}
		mm.categories[c] = cm
	}
	return cm
}

// counter returns *c, first registering it as name with labels when nil.
func (mm *masterMetrics) counter(c **metrics.Counter, name string, labels ...metrics.Label) *metrics.Counter {
	if *c == nil {
		*c = mm.reg.Counter(name, labels...)
	}
	return *c
}

func workerLabel(w *Worker) metrics.Label {
	return metrics.L("worker", strconv.Itoa(w.Node.ID))
}

// on updates the instruments a transition moves. Resilience, scheduler and
// per-category peak instruments register lazily, on their first event, so
// runs without such events keep a byte-identical registry dump.
func (mm *masterMetrics) on(e *event) {
	if mm == nil {
		return
	}
	switch e.kind {
	case evJoin:
		w := e.w
		mm.reg.GaugeFunc("wq_worker_cores_used", func() float64 { return w.usedCores }, workerLabel(w))
		mm.reg.GaugeFunc("wq_worker_cores_free", func() float64 { return w.free().Cores }, workerLabel(w))
	case evLeave:
		mm.reg.Unregister("wq_worker_cores_used", workerLabel(e.w))
		mm.reg.Unregister("wq_worker_cores_free", workerLabel(e.w))
	case evSubmit:
		cm := mm.category(e.t)
		mm.counter(&cm.submitted, "wq_tasks_submitted_total", cm.label).Inc()
	case evDepFail:
		cm := mm.category(e.t)
		mm.counter(&cm.depFailed, "wq_tasks_dep_failed_total", cm.label).Inc()
	case evPlaced:
		mm.placements.Inc()
	case evExecStart:
		if !e.a.speculative {
			mm.waitSeconds.Observe(float64(e.a.t.StartedAt - e.a.t.SubmittedAt))
		}
	case evReport:
		mm.report(e.a.t, e.rep)
		if e.rep.Completed && e.a.speculative {
			mm.inc("wq_speculative_wins_total", "backup copies that finished before the original")
		}
	case evAttemptDone:
		if e.rep.Completed {
			mm.execSeconds.Observe(float64(e.rep.WallTime))
		}
	case evLost:
		mm.lost.Inc()
		mm.specCancelled(e.a)
	case evCancelled:
		mm.specCancelled(e.a)
	case evStagingFailed:
		mm.inc("wq_staging_failures_total", "attempts failed by staging-transfer faults")
		mm.specCancelled(e.a)
	case evCacheHit:
		mm.cacheHits.Inc()
	case evTransferIn:
		mm.cacheMiss.Inc()
		mm.bytesIn.Add(float64(e.f.SizeBytes))
	case evTransferOut:
		mm.bytesOut.Add(float64(e.t.OutputBytes))
	case evRetry:
		mm.retries.Inc()
	case evComplete:
		cm := mm.category(e.t)
		if e.t.State == TaskDone {
			mm.counter(&cm.completed, "wq_tasks_completed_total", cm.label).Inc()
		} else {
			mm.counter(&cm.failed, "wq_tasks_failed_total", cm.label).Inc()
		}
	case evSuspect:
		mm.reg.Help("wq_detection_latency_seconds", "worker death to heartbeat-suspicion latency")
		mm.reg.Histogram("wq_detection_latency_seconds", metrics.DefTimeBuckets()).Observe(float64(e.d))
	case evStagingRetry:
		mm.inc("wq_staging_retries_total", "failed input transfers retried under backoff")
	case evQuarantine:
		mm.inc("wq_quarantines_total", "worker circuit-breaker trips, by worker", workerLabel(e.w))
	case evSpecLaunch:
		mm.inc("wq_speculative_launched_total", "backup copies launched for straggling tasks")
	case evSchedPass:
		if mm.rounds == nil {
			mm.reg.Help("wq_sched_rounds_total", "scheduling rounds run by the matcher")
			mm.rounds = mm.reg.Counter("wq_sched_rounds_total")
			mm.reg.Help("wq_sched_candidates", "workers tested for fit per scheduling round")
			mm.candidates = mm.reg.Histogram("wq_sched_candidates", metrics.ExpBuckets(1, 4, 12))
		}
		mm.rounds.Inc()
		mm.candidates.Observe(float64(e.n))
	}
}

// inc increments a lazily registered counter.
func (mm *masterMetrics) inc(name, help string, labels ...metrics.Label) {
	mm.reg.Help(name, help)
	mm.reg.Counter(name, labels...).Inc()
}

// specCancelled counts a speculative attempt that ended without winning.
func (mm *masterMetrics) specCancelled(a *attempt) {
	if a.speculative {
		mm.inc("wq_speculative_cancelled_total", "race-losing or dead speculative attempts cancelled")
	}
}

// report exports what the allocation strategy actually observed: the
// per-category distributions of completed-attempt peaks and time-to-peak.
func (mm *masterMetrics) report(t *Task, rep *monitor.Report) {
	if !rep.Completed {
		return
	}
	cm := mm.category(t)
	if cm.peakMem == nil {
		cl := cm.label
		mm.reg.Help("lfm_category_peak_mem_mb", "peak memory of completed attempts, by category")
		cm.peakMem = mm.reg.Histogram("lfm_category_peak_mem_mb", metrics.ExpBuckets(16, 2, 16), cl)
		mm.reg.Help("lfm_category_peak_cores", "peak cores of completed attempts, by category")
		cm.peakCores = mm.reg.Histogram("lfm_category_peak_cores", metrics.ExpBuckets(0.5, 2, 10), cl)
		mm.reg.Help("lfm_category_peak_disk_mb", "peak disk of completed attempts, by category")
		cm.peakDisk = mm.reg.Histogram("lfm_category_peak_disk_mb", metrics.ExpBuckets(16, 2, 16), cl)
		mm.reg.Help("lfm_category_time_to_peak_seconds", "start to last peak increase of completed attempts, by category")
		cm.timeToPeak = mm.reg.Histogram("lfm_category_time_to_peak_seconds", metrics.DefTimeBuckets(), cl)
	}
	cm.peakMem.Observe(rep.Peak.MemoryMB)
	cm.peakCores.Observe(rep.Peak.Cores)
	cm.peakDisk.Observe(rep.Peak.DiskMB)
	cm.timeToPeak.Observe(float64(rep.TimeToPeak))
}
