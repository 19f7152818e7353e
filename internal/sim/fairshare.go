package sim

import (
	"cmp"
	"slices"
)

// FairShare models a capacity shared equally among active flows, such as a
// network link or the aggregate data bandwidth of a parallel filesystem.
// While n flows are active each progresses at Capacity/n (optionally capped
// by PerFlowCap, modeling a single client NIC that cannot use the whole
// fabric). This is the textbook processor-sharing construction, implemented
// with virtual time: v advances by the per-flow rate, each flow finishes at
// the fixed virtual instant v_start + size, and the active set is a min-heap
// on (v_end, start order). Starting or completing a flow is O(log n) — the
// previous implementation charged every active flow on every change, which
// went quadratic during staging storms with tens of thousands of concurrent
// transfers.
type FairShare struct {
	eng *Engine

	// Capacity is the aggregate service rate in units/second (e.g. bytes/s).
	Capacity float64
	// PerFlowCap, if nonzero, limits the rate any single flow can achieve.
	PerFlowCap float64

	// flows is a min-heap on (vEnd, seq). Completion callbacks for flows
	// that finish at the same instant fire in start order, so runs stay
	// deterministic.
	flows   []*Flow
	vnow    float64 // virtual units served per flow since the last idle rebase
	lastUpd Time
	next    Event
	seq     uint64
	scratch []*Flow
	// onDue is complete bound once: a method value passed to After would
	// allocate a fresh closure on every reschedule.
	onDue func()

	// Completed counts finished flows; MovedUnits integrates total work done.
	Completed  uint64
	MovedUnits float64
}

// Flow is one in-progress transfer on a FairShare resource.
type Flow struct {
	vEnd float64
	seq  uint64
	done func()
	fs   *FairShare
}

// NewFairShare returns a fair-shared resource with the given aggregate
// capacity attached to the engine.
func NewFairShare(eng *Engine, capacity float64) *FairShare {
	if capacity <= 0 {
		panic("sim: fair share capacity must be positive")
	}
	f := &FairShare{eng: eng, Capacity: capacity}
	f.onDue = f.complete
	return f
}

// Active reports the number of in-progress flows.
func (f *FairShare) Active() int { return len(f.flows) }

// rate returns the current per-flow service rate.
func (f *FairShare) rate() float64 {
	n := len(f.flows)
	if n == 0 {
		return 0
	}
	r := f.Capacity / float64(n)
	if f.PerFlowCap > 0 && r > f.PerFlowCap {
		r = f.PerFlowCap
	}
	return r
}

// advance moves virtual time forward by the progress every active flow made
// since the last update.
func (f *FairShare) advance() {
	now := f.eng.Now()
	dt := float64(now - f.lastUpd)
	f.lastUpd = now
	if dt <= 0 || len(f.flows) == 0 {
		return
	}
	progress := f.rate() * dt
	f.vnow += progress
	f.MovedUnits += progress * float64(len(f.flows))
}

// reschedule points the next completion event at the earliest-finishing
// flow.
func (f *FairShare) reschedule() {
	f.eng.Cancel(f.next)
	f.next = Event{}
	if len(f.flows) == 0 {
		return
	}
	eta := Time((f.flows[0].vEnd - f.vnow) / f.rate())
	if eta < 0 {
		eta = 0
	}
	f.next = f.eng.After(eta, f.onDue)
}

// complete fires when the earliest flow(s) finish.
func (f *FairShare) complete() {
	f.next = Event{}
	f.advance()
	// Tolerate floating-point residue when several flows tie; the epsilon
	// scales with the virtual clock so it stays meaningful late in a run.
	eps := 1e-9 + f.vnow*1e-12
	finished := f.scratch[:0]
	for len(f.flows) > 0 && f.flows[0].vEnd <= f.vnow+eps {
		finished = append(finished, f.heapPop())
	}
	// This event was scheduled for the earliest flow's completion. If float
	// underflow kept the virtual clock from registering the last sliver of
	// progress, force-complete that flow: otherwise the resource reschedules
	// at the same instant forever.
	if len(finished) == 0 && len(f.flows) > 0 {
		finished = append(finished, f.heapPop())
	}
	f.Completed += uint64(len(finished))
	if len(f.flows) == 0 {
		// Idle: rebase the virtual clock so it cannot grow without bound
		// (and lose precision) over a long run.
		f.vnow = 0
	}
	// Callbacks fire in start order, after bookkeeping, so they can start
	// new flows safely.
	slices.SortFunc(finished, func(a, b *Flow) int { return cmp.Compare(a.seq, b.seq) })
	for _, fl := range finished {
		fl.fs = nil
		if fl.done != nil {
			fl.done()
		}
	}
	f.scratch = finished[:0]
	for i := range finished {
		finished[i] = nil
	}
	f.reschedule()
}

// Transfer starts a flow of the given size and calls done when it completes.
// A zero-size transfer completes on the next event dispatch.
func (f *FairShare) Transfer(units float64, done func()) *Flow {
	if units < 0 {
		panic("sim: negative transfer size")
	}
	f.advance()
	if len(f.flows) == 0 {
		f.vnow = 0
	}
	fl := &Flow{vEnd: f.vnow + units, seq: f.seq, done: done, fs: f}
	f.seq++
	f.heapPush(fl)
	f.reschedule()
	return fl
}

// EstimateLatency reports how long a transfer of the given size would take if
// the current number of flows stayed constant. Schedulers use it for
// planning; it performs no simulation side effects.
func (f *FairShare) EstimateLatency(units float64) Time {
	n := len(f.flows) + 1
	r := f.Capacity / float64(n)
	if f.PerFlowCap > 0 && r > f.PerFlowCap {
		r = f.PerFlowCap
	}
	return Time(units / r)
}

// flow-heap primitives (binary min-heap on (vEnd, seq)). Flows cannot be
// cancelled, so nothing removes from the middle and flows keep no index.

func fless(a, b *Flow) bool {
	if a.vEnd != b.vEnd {
		return a.vEnd < b.vEnd
	}
	return a.seq < b.seq
}

func (f *FairShare) heapPush(fl *Flow) {
	f.flows = append(f.flows, fl)
	i := len(f.flows) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !fless(f.flows[i], f.flows[parent]) {
			break
		}
		f.flows[i], f.flows[parent] = f.flows[parent], f.flows[i]
		i = parent
	}
}

func (f *FairShare) heapPop() *Flow {
	fl := f.flows[0]
	last := len(f.flows) - 1
	f.flows[0] = f.flows[last]
	f.flows[last] = nil
	f.flows = f.flows[:last]
	n := last
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && fless(f.flows[r], f.flows[c]) {
			c = r
		}
		if !fless(f.flows[c], f.flows[i]) {
			break
		}
		f.flows[i], f.flows[c] = f.flows[c], f.flows[i]
		i = c
	}
	return fl
}
