// Package sim provides a deterministic discrete-event simulation kernel used
// by the cluster, filesystem, and scheduler models. All experiment results in
// this repository are produced on top of this kernel so that they are exactly
// reproducible across machines and runs.
//
// The kernel is callback-based: entities schedule functions to run at future
// simulated times, and Engine.Run dispatches them in time order. Ties are
// broken by scheduling order, which keeps runs deterministic: (at, seq) is a
// strict total order over events, so any correct priority queue yields the
// same dispatch sequence (see equeue.go for the calendar queue that holds
// pending events).
package sim

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp or duration in seconds.
type Time float64

// Common durations, for readability at call sites.
const (
	Millisecond Time = 1e-3
	Second      Time = 1
	Minute      Time = 60
	Hour        Time = 3600
)

// Duration formats a Time as a human-readable duration string. Non-finite
// values print as NaN/+Inf/-Inf rather than being scaled into a nonsense
// unit, and sub-microsecond values get a nanosecond rendering instead of
// rounding to "0us".
func (t Time) Duration() string {
	f := float64(t)
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	case t < 0:
		return "-" + (-t).Duration()
	case t == 0:
		return "0s"
	case t < 1e-6:
		return fmt.Sprintf("%.3gns", f*1e9)
	case t < 1e-3:
		return fmt.Sprintf("%.0fus", f*1e6)
	case t < 1:
		return fmt.Sprintf("%.1fms", f*1e3)
	case t < Minute:
		return fmt.Sprintf("%.2fs", f)
	case t < Hour:
		return fmt.Sprintf("%.1fm", f/60)
	default:
		return fmt.Sprintf("%.2fh", f/3600)
	}
}

// eslot is one arena-allocated event slot. Slots are recycled through a free
// list; gen increments on every release so that stale Event handles (held
// after their event fired or was cancelled) can never act on a recycled slot.
type eslot struct {
	at  Time
	seq uint64
	fn  func()
	// day is the calendar-queue day floor(at/width), precomputed at push so
	// hunting never re-divides.
	day int64
	gen uint32
	// pos is the slot's index within its bucket or within the near heap.
	pos int32
	// b is the owning bucket index, nearHeap when in the near heap.
	b int32
}

// Event is a value handle to a scheduled callback. It can be cancelled as
// long as it has not fired yet; cancelling a fired, already-cancelled, or
// zero-value handle is a harmless no-op. Handles stay valid (as inert
// no-ops) after their slot is recycled for a new event: the generation
// check distinguishes them.
type Event struct {
	slot *eslot
	gen  uint32
	at   Time
}

// At reports the simulated time the event was scheduled for.
func (e Event) At() Time { return e.at }

// Cancelled reports whether the event has been cancelled or already fired.
// The zero Event reports true.
func (e Event) Cancelled() bool {
	return e.slot == nil || e.slot.gen != e.gen || e.slot.fn == nil
}

// arenaChunk is how many event slots are allocated per arena growth; one
// allocator object then serves arenaChunk schedules before the next.
const arenaChunk = 256

// Engine is a discrete-event simulation engine. The zero value is not usable;
// construct one with NewEngine.
type Engine struct {
	now     Time
	q       *calendarQueue
	seq     uint64
	stopped bool
	rng     *RNG

	// freeSlots is the arena free list; alloc grows it a chunk at a time.
	freeSlots []*eslot
	// deferred holds end-of-timestamp procedures (see Defer), FIFO.
	deferred []func()

	// Processed counts callbacks dispatched so far — timed events plus
	// deferred procedures; useful for runaway guards.
	Processed uint64
	// MaxEvents, if nonzero, aborts Run with a panic once exceeded. It is a
	// backstop against accidental infinite event loops in model code.
	MaxEvents uint64
}

// NewEngine returns an engine starting at time 0 with a deterministic
// random-number generator seeded from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRNG(seed), q: newCalendarQueue()}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// alloc takes a slot from the free list, growing the arena by a chunk when
// it is empty.
func (e *Engine) alloc() *eslot {
	if n := len(e.freeSlots); n > 0 {
		s := e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		return s
	}
	chunk := make([]eslot, arenaChunk)
	for i := 1; i < arenaChunk; i++ {
		e.freeSlots = append(e.freeSlots, &chunk[i])
	}
	return &chunk[0]
}

// release returns a slot to the free list, bumping its generation so stale
// handles go inert and dropping the callback reference for the GC.
func (e *Engine) release(s *eslot) {
	s.fn = nil
	s.gen++
	e.freeSlots = append(e.freeSlots, s)
}

// At schedules fn to run at absolute simulated time t. Scheduling in the past
// (t < Now) panics: it always indicates a model bug, and silently clamping
// would hide it. Non-finite times also panic: an event at +Inf could never
// fire at a meaningful time yet would corrupt Now() if Run(= RunUntil(+Inf))
// dispatched it.
func (e *Engine) At(t Time, fn func()) Event {
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", float64(t)))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	s := e.alloc()
	s.at = t
	s.seq = e.seq
	s.fn = fn
	e.seq++
	e.q.push(s)
	return Event{slot: s, gen: s.gen, at: t}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Defer enqueues fn to run at the current timestamp after every event
// scheduled for that timestamp has dispatched — i.e. at the end of the
// current dispatch round, before simulated time advances. Deferred
// procedures run in FIFO order and may Defer further procedures into the
// same round. Outside Run, fn is held until the next Run/RunUntil, which
// drains it before dispatching. Unlike After(0, fn), a Defer sees the
// combined effect of every same-timestamp event, so bursts of completions
// trigger one scheduling pass instead of one per completion.
func (e *Engine) Defer(fn func()) {
	if fn == nil {
		panic("sim: deferring nil callback")
	}
	e.deferred = append(e.deferred, fn)
}

// Cancel removes a pending event. It is safe to call on zero-value, fired,
// or already-cancelled handles.
func (e *Engine) Cancel(ev Event) {
	s := ev.slot
	if s == nil || s.gen != ev.gen || s.fn == nil {
		return
	}
	e.q.remove(s)
	e.release(s)
}

// Stop makes Run return after the currently dispatching callback completes.
// A Stop issued while no Run is in progress is sticky: the next Run/RunUntil
// invocation consumes it and returns immediately without dispatching
// anything. Each Stop is consumed by exactly one (possibly empty) Run.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of callbacks waiting to fire: queued events
// plus deferred end-of-round procedures.
func (e *Engine) Pending() int { return e.q.len() + len(e.deferred) }

// Run dispatches events in time order until no events remain or Stop is
// called. It returns the final simulated time.
func (e *Engine) Run() Time { return e.RunUntil(Time(math.Inf(1))) }

// RunUntil dispatches events with timestamps <= limit (+Inf meaning all).
// Events beyond limit remain queued. It returns the simulated time of the
// last dispatched event (or the current time if nothing ran). A sticky
// pre-run Stop makes it return immediately; see Stop.
func (e *Engine) RunUntil(limit Time) Time {
	if math.IsNaN(float64(limit)) {
		panic("sim: RunUntil with NaN limit")
	}
	for !e.stopped {
		s := e.q.pop()
		if s == nil || s.at > limit || (s.at > e.now && len(e.deferred) > 0) {
			// No dispatchable event before the next time step: drain the
			// current round's deferred procedures, then either revisit the
			// queue (a procedure may have scheduled new events) or stop.
			if s != nil {
				e.q.push(s)
			}
			if len(e.deferred) > 0 {
				e.drainDeferred()
				continue
			}
			break
		}
		e.now = s.at
		fn := s.fn
		e.release(s)
		e.countDispatch()
		if fn != nil {
			fn()
		}
	}
	e.stopped = false
	return e.now
}

// drainDeferred runs queued end-of-round procedures in FIFO order, including
// ones deferred while draining. A Stop issued by a procedure leaves the rest
// queued for the next Run.
func (e *Engine) drainDeferred() {
	for i := 0; i < len(e.deferred); i++ {
		if e.stopped {
			e.deferred = append(e.deferred[:0], e.deferred[i:]...)
			return
		}
		fn := e.deferred[i]
		e.deferred[i] = nil
		e.countDispatch()
		fn()
	}
	e.deferred = e.deferred[:0]
}

// countDispatch advances the dispatch counter and trips the runaway guard.
func (e *Engine) countDispatch() {
	e.Processed++
	if e.MaxEvents != 0 && e.Processed > e.MaxEvents {
		panic(fmt.Sprintf("sim: exceeded MaxEvents=%d (event loop?)", e.MaxEvents))
	}
}
