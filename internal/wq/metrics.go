package wq

import (
	"strconv"
	"time"

	"lfm/internal/metrics"
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// SetMetrics attaches a metrics registry to the master: pool and queue gauges
// are registered immediately and the hot paths (placement, staging, transfer,
// completion) update counters and histograms from then on. Call it before
// submitting work; nil detaches. Runs without a registry pay only a nil check
// per hook.
func (m *Master) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		m.met = nil
		return
	}
	m.met = newMasterMetrics(m, reg)
}

// masterMetrics holds the master's registry instruments. All on* methods are
// nil-safe so uninstrumented masters skip straight through.
type masterMetrics struct {
	m   *Master
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
	roundSecs  *metrics.Histogram
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
		m:           m,
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

func (mm *masterMetrics) onSubmit(t *Task) {
	if mm != nil {
		cm := mm.category(t)
		mm.counter(&cm.submitted, "wq_tasks_submitted_total", cm.label).Inc()
	}
}

func (mm *masterMetrics) onDone(t *Task) {
	if mm != nil {
		cm := mm.category(t)
		mm.counter(&cm.completed, "wq_tasks_completed_total", cm.label).Inc()
	}
}

func (mm *masterMetrics) onFail(t *Task) {
	if mm != nil {
		cm := mm.category(t)
		mm.counter(&cm.failed, "wq_tasks_failed_total", cm.label).Inc()
	}
}

func (mm *masterMetrics) onDepFail(t *Task) {
	if mm != nil {
		cm := mm.category(t)
		mm.counter(&cm.depFailed, "wq_tasks_dep_failed_total", cm.label).Inc()
	}
}

func (mm *masterMetrics) onPlace() {
	if mm != nil {
		mm.placements.Inc()
	}
}

func (mm *masterMetrics) onStart(t *Task) {
	if mm != nil {
		mm.waitSeconds.Observe(float64(t.StartedAt - t.SubmittedAt))
	}
}

func (mm *masterMetrics) onExec(wall sim.Time) {
	if mm != nil {
		mm.execSeconds.Observe(float64(wall))
	}
}

func (mm *masterMetrics) onRetry() {
	if mm != nil {
		mm.retries.Inc()
	}
}

func (mm *masterMetrics) onLost() {
	if mm != nil {
		mm.lost.Inc()
	}
}

func (mm *masterMetrics) onCacheHit() {
	if mm != nil {
		mm.cacheHits.Inc()
	}
}

func (mm *masterMetrics) onTransferIn(bytes int64) {
	if mm != nil {
		mm.cacheMiss.Inc()
		mm.bytesIn.Add(float64(bytes))
	}
}

func (mm *masterMetrics) onTransferOut(bytes int64) {
	if mm != nil {
		mm.bytesOut.Add(float64(bytes))
	}
}

// Resilience instruments register lazily, on their first event: undisturbed
// runs keep a byte-identical registry dump.

func (mm *masterMetrics) onSuspect(latency sim.Time) {
	if mm != nil {
		mm.reg.Help("wq_detection_latency_seconds", "worker death to heartbeat-suspicion latency")
		mm.reg.Histogram("wq_detection_latency_seconds", metrics.DefTimeBuckets()).Observe(float64(latency))
	}
}

func (mm *masterMetrics) onSpecLaunch() {
	if mm != nil {
		mm.reg.Help("wq_speculative_launched_total", "backup copies launched for straggling tasks")
		mm.reg.Counter("wq_speculative_launched_total").Inc()
	}
}

func (mm *masterMetrics) onSpecWin() {
	if mm != nil {
		mm.reg.Help("wq_speculative_wins_total", "backup copies that finished before the original")
		mm.reg.Counter("wq_speculative_wins_total").Inc()
	}
}

func (mm *masterMetrics) onSpecCancel() {
	if mm != nil {
		mm.reg.Help("wq_speculative_cancelled_total", "race-losing or dead speculative attempts cancelled")
		mm.reg.Counter("wq_speculative_cancelled_total").Inc()
	}
}

func (mm *masterMetrics) onStagingRetry() {
	if mm != nil {
		mm.reg.Help("wq_staging_retries_total", "failed input transfers retried under backoff")
		mm.reg.Counter("wq_staging_retries_total").Inc()
	}
}

func (mm *masterMetrics) onStagingFailure() {
	if mm != nil {
		mm.reg.Help("wq_staging_failures_total", "attempts failed by staging-transfer faults")
		mm.reg.Counter("wq_staging_failures_total").Inc()
	}
}

func (mm *masterMetrics) onQuarantine(w *Worker) {
	if mm != nil {
		mm.reg.Help("wq_quarantines_total", "worker circuit-breaker trips, by worker")
		mm.reg.Counter("wq_quarantines_total", workerLabel(w)).Inc()
	}
}

func (mm *masterMetrics) onQuarantineEnd(*Worker) {}

// onSchedPass records one scheduling round: its candidates-examined count
// and wall-clock duration. Registered lazily like the resilience
// instruments, though in practice the first round fires immediately.
func (mm *masterMetrics) onSchedPass(candidates int64, dur time.Duration) {
	if mm == nil {
		return
	}
	if mm.rounds == nil {
		mm.reg.Help("wq_sched_rounds_total", "scheduling rounds run by the matcher")
		mm.rounds = mm.reg.Counter("wq_sched_rounds_total")
		mm.reg.Help("wq_sched_candidates", "workers tested for fit per scheduling round")
		mm.candidates = mm.reg.Histogram("wq_sched_candidates", metrics.ExpBuckets(1, 4, 12))
		mm.reg.Help("wq_sched_round_seconds", "wall-clock duration of one scheduling round")
		mm.roundSecs = mm.reg.Histogram("wq_sched_round_seconds", metrics.ExpBuckets(1e-7, 4, 14))
	}
	mm.rounds.Inc()
	mm.candidates.Observe(float64(candidates))
	mm.roundSecs.Observe(dur.Seconds())
}

// onReport exports what the allocation strategy actually observed: the
// per-category distributions of completed-attempt peaks and time-to-peak.
// Registered lazily on a category's first completed report, so runs
// without completions keep a byte-identical registry dump.
func (mm *masterMetrics) onReport(t *Task, rep monitor.Report) {
	if mm == nil || !rep.Completed {
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

func (mm *masterMetrics) onWorkerJoin(w *Worker) {
	if mm == nil {
		return
	}
	mm.reg.GaugeFunc("wq_worker_cores_used", func() float64 { return w.usedCores }, workerLabel(w))
	mm.reg.GaugeFunc("wq_worker_cores_free", func() float64 { return w.free().Cores }, workerLabel(w))
}

func (mm *masterMetrics) onWorkerLeave(w *Worker) {
	if mm == nil {
		return
	}
	mm.reg.Unregister("wq_worker_cores_used", workerLabel(w))
	mm.reg.Unregister("wq_worker_cores_free", workerLabel(w))
}
