package sim

// Tokens is a counting resource with FIFO waiters, the simulated analogue of
// a semaphore. No model is built on it: worker capacity (internal/wq) and
// serving admission (internal/serve) keep their own counters, so only this
// package's tests use it.
type Tokens struct {
	capacity float64
	used     float64
	waiters  []tokenWait

	// PeakUsed tracks the high-water mark for utilization reporting.
	PeakUsed float64
}

type tokenWait struct {
	amount float64
	grant  func()
}

// NewTokens returns a pool with the given capacity.
func NewTokens(capacity float64) *Tokens {
	if capacity < 0 {
		panic("sim: negative token capacity")
	}
	return &Tokens{capacity: capacity}
}

// Capacity reports the pool size.
func (t *Tokens) Capacity() float64 { return t.capacity }

// Used reports the amount currently held.
func (t *Tokens) Used() float64 { return t.used }

// Free reports the amount currently available.
func (t *Tokens) Free() float64 { return t.capacity - t.used }

// Waiting reports the number of queued acquisitions.
func (t *Tokens) Waiting() int { return len(t.waiters) }

// TryAcquire takes amount immediately if available, reporting success.
func (t *Tokens) TryAcquire(amount float64) bool {
	if amount < 0 {
		panic("sim: negative token acquire")
	}
	if amount > t.capacity {
		return false // can never succeed; caller must detect this
	}
	if len(t.waiters) > 0 || t.used+amount > t.capacity+1e-9 {
		return false
	}
	t.used += amount
	if t.used > t.PeakUsed {
		t.PeakUsed = t.used
	}
	return true
}

// Acquire takes amount, calling grant (synchronously if available now,
// otherwise when enough is released). Requests larger than the capacity
// panic: they would wait forever.
func (t *Tokens) Acquire(amount float64, grant func()) {
	if amount > t.capacity {
		panic("sim: token acquire exceeds capacity")
	}
	if t.TryAcquire(amount) {
		grant()
		return
	}
	t.waiters = append(t.waiters, tokenWait{amount: amount, grant: grant})
}

// Release returns amount to the pool and grants as many FIFO waiters as now
// fit. Releasing more than is held panics.
func (t *Tokens) Release(amount float64) {
	if amount < 0 {
		panic("sim: negative token release")
	}
	if amount > t.used+1e-9 {
		panic("sim: token release exceeds held amount")
	}
	t.used -= amount
	if t.used < 0 {
		t.used = 0
	}
	for len(t.waiters) > 0 {
		w := t.waiters[0]
		if t.used+w.amount > t.capacity+1e-9 {
			break // strict FIFO: do not let small requests starve the head
		}
		copy(t.waiters, t.waiters[1:])
		t.waiters = t.waiters[:len(t.waiters)-1]
		t.used += w.amount
		if t.used > t.PeakUsed {
			t.PeakUsed = t.used
		}
		w.grant()
	}
}
