package wq

// pick chooses a worker for the task, or nil. The paper's Work Queue
// "prefers to schedule tasks where needed data is cached": the worker
// caching the most input bytes wins, ties going to the worker with the
// most free cores. Candidates arrive in join order (the scan iterates the
// pool in join order), so remaining ties go to the earliest joiner. The
// indexed matcher's affinity keys encode exactly this order, so both
// matchers resolve the same worker.
func (m *Master) pick(t *Task, candidates []*Worker) *Worker {
	var best *Worker
	var bestCached int64 = -1
	var bestFree float64 = -1
	for _, w := range candidates {
		c := w.cachedBytes(t)
		f := w.free().Cores
		if c > bestCached || (c == bestCached && f > bestFree) {
			best = w
			bestCached = c
			bestFree = f
		}
	}
	return best
}
