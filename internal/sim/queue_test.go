package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// onCalendar runs f as a subtest named "calendar". The engine's queue is
// now an indexed heap; the name stays so that these properties keep
// reporting under the test names they always had.
func onCalendar(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("calendar", f)
}

// Regression: At used to accept non-finite times. An event at t = +Inf
// defeated RunUntil's `at > limit` guard (Inf > Inf is false), fired, and
// corrupted Now() to +Inf for the rest of the run.
func TestAtRejectsNonFiniteTime(t *testing.T) {
	onCalendar(t, func(t *testing.T) {
		for _, bad := range []Time{Time(math.Inf(1)), Time(math.Inf(-1)), Time(math.NaN())} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("At(%v) did not panic", bad)
					}
				}()
				NewEngine(1).At(bad, func() {})
			}()
		}
	})
}

func TestRunUntilInfinityKeepsNowFinite(t *testing.T) {
	onCalendar(t, func(t *testing.T) {
		e := NewEngine(1)
		fired := 0
		e.At(1, func() { fired++ })
		e.At(2, func() { fired++ })
		end := e.Run()
		if fired != 2 {
			t.Fatalf("fired %d events, want 2", fired)
		}
		if math.IsInf(float64(end), 0) || end != 2 {
			t.Fatalf("Run() returned %v, want 2", end)
		}
	})
}

func TestRunUntilNaNLimitPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil(NaN) did not panic")
		}
	}()
	e.RunUntil(Time(math.NaN()))
}

// Regression: RunUntil used to clear e.stopped unconditionally on entry, so
// a Stop() issued before the run (e.g. from a callback of a previous run
// that had already drained) was silently lost. Stop is sticky: it parks the
// next Run before any dispatch, and that run consumes it.
func TestStopBeforeRunIsSticky(t *testing.T) {
	onCalendar(t, func(t *testing.T) {
		e := NewEngine(1)
		fired := false
		e.At(1, func() { fired = true })
		e.Stop()
		if end := e.RunUntil(10); end != 0 {
			t.Fatalf("stopped run advanced time to %v, want 0", end)
		}
		if fired {
			t.Fatal("stopped run dispatched an event")
		}
		// The Stop was consumed: the next run proceeds normally.
		if end := e.RunUntil(10); end != 1 || !fired {
			t.Fatalf("second run: end=%v fired=%v, want 1 true", end, fired)
		}
	})
}

// Regression: Duration() used to produce garbage for non-finite and
// sub-microsecond values ("+Infh", "0us" for 100ns).
func TestTimeDurationEdgeCases(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{Time(math.Inf(1)), "+Inf"},
		{Time(math.Inf(-1)), "-Inf"},
		{Time(math.NaN()), "NaN"},
		{0, "0s"},
		{1e-7, "100ns"},
		{2.5e-9, "2.5ns"},
		{-1e-7, "-100ns"},
		{-0.5, "-500.0ms"},
	}
	for _, c := range cases {
		if got := c.t.Duration(); got != c.want {
			t.Errorf("Time(%v).Duration() = %q, want %q", float64(c.t), got, c.want)
		}
	}
}

func TestDeferRunsBeforeTimeAdvances(t *testing.T) {
	onCalendar(t, func(t *testing.T) {
		e := NewEngine(1)
		var order []string
		e.At(1, func() {
			e.Defer(func() {
				order = append(order, fmt.Sprintf("defer1@%v", e.Now()))
				e.Defer(func() { order = append(order, fmt.Sprintf("nested@%v", e.Now())) })
			})
			e.Defer(func() { order = append(order, fmt.Sprintf("defer2@%v", e.Now())) })
			order = append(order, "event@1")
		})
		e.At(2, func() { order = append(order, "event@2") })
		e.Run()
		want := []string{"event@1", "defer1@1", "defer2@1", "nested@1", "event@2"}
		if len(order) != len(want) {
			t.Fatalf("order = %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order = %v, want %v", order, want)
			}
		}
	})
}

func TestDeferCountsInPending(t *testing.T) {
	e := NewEngine(1)
	e.Defer(func() {})
	e.At(1, func() {})
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending() = %d, want 2", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() after run = %d, want 0", got)
	}
}

func TestDeferNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Defer(nil) did not panic")
		}
	}()
	NewEngine(1).Defer(nil)
}

// Property: a burst of events sharing one timestamp dispatches in exact
// scheduling (seq) order, and timestamps never regress. This is the
// batched-round dispatch invariant the wq master relies on for determinism.
func TestBatchedSameTimestampOrderProperty(t *testing.T) {
	onCalendar(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 20; trial++ {
			e := NewEngine(1)
			type rec struct {
				at  Time
				seq int
			}
			var got []rec
			n := 0
			// A few distinct timestamps, each carrying a burst of events.
			for _, at := range []Time{0, 1, 1, 2.5} {
				burst := 1 + rng.Intn(8)
				for i := 0; i < burst; i++ {
					at, seq := at, n
					e.At(at, func() { got = append(got, rec{at, seq}) })
					n++
				}
			}
			e.Run()
			if len(got) != n {
				t.Fatalf("trial %d: dispatched %d of %d events", trial, len(got), n)
			}
			for i := 1; i < len(got); i++ {
				a, b := got[i-1], got[i]
				if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
					t.Fatalf("trial %d: dispatch %d (%v,%d) before %d (%v,%d) violates (at,seq) order",
						trial, i-1, a.at, a.seq, i, b.at, b.seq)
				}
			}
		}
	})
}

// Property: cancelling a same-timestamp sibling from inside a firing
// callback prevents its dispatch — the burst is not snapshotted before the
// cancel takes effect.
func TestSameTimestampSiblingCancel(t *testing.T) {
	onCalendar(t, func(t *testing.T) {
		e := NewEngine(1)
		var fired []int
		var victim Event
		e.At(1, func() {
			fired = append(fired, 0)
			e.Cancel(victim)
		})
		e.At(1, func() { fired = append(fired, 1) })
		victim = e.At(1, func() { fired = append(fired, 2) })
		e.At(1, func() { fired = append(fired, 3) })
		e.Run()
		want := []int{0, 1, 3}
		if len(fired) != len(want) {
			t.Fatalf("fired %v, want %v", fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("fired %v, want %v", fired, want)
			}
		}
		if !victim.Cancelled() {
			t.Fatal("victim handle not Cancelled after cancel")
		}
	})
}

// refQueue is the reference pending-event set: an unordered slice whose pop
// is a linear min-scan on (at, seq).
type refQueue []*eslot

func (r *refQueue) push(s *eslot) { *r = append(*r, s) }

// peek returns the minimum slot, or nil when empty.
func (r *refQueue) peek() *eslot {
	var m *eslot
	for _, s := range *r {
		if m == nil || eless(s, m) {
			m = s
		}
	}
	return m
}

func (r *refQueue) pop() *eslot {
	s := r.peek()
	r.remove(s)
	return s
}

func (r *refQueue) remove(s *eslot) {
	q := *r
	for i, x := range q {
		if x == s {
			q[i] = q[len(q)-1]
			*r = q[:len(q)-1]
			return
		}
	}
}

// queueDiff drives the engine's event queue and the reference queue through
// the same operations and fails on the first divergence. Like the engine,
// it never pushes an event before the time of the last pop.
type queueDiff struct {
	t    testing.TB
	q    eventQueue
	ref  refQueue
	live []*eslot
	now  Time
	seq  uint64
	peak int
}

func (d *queueDiff) push(at Time) {
	s := &eslot{at: at, seq: d.seq}
	d.seq++
	d.q.push(s)
	d.ref.push(s)
	d.live = append(d.live, s)
}

// pop pops both queues and compares. With dispatch the slot is forgotten
// and the clock advances to it; without, the slot goes straight back into
// both queues under its original seq.
func (d *queueDiff) pop(dispatch bool) {
	got, want := d.q.pop(), d.ref.pop()
	if got != want {
		d.t.Fatalf("heap popped %+v, reference %+v", got, want)
	}
	if got == nil {
		return
	}
	if !dispatch {
		d.q.push(got)
		d.ref.push(got)
		return
	}
	d.now = got.at
	d.forget(got)
}

func (d *queueDiff) peek() {
	if got, want := d.q.peek(), d.ref.peek(); got != want {
		d.t.Fatalf("heap peeked %+v, reference minimum %+v", got, want)
	}
}

// remove cancels the live slot picked by k, if any are live.
func (d *queueDiff) remove(k int) {
	if len(d.live) == 0 {
		return
	}
	s := d.live[k%len(d.live)]
	d.q.remove(s)
	d.ref.remove(s)
	d.forget(s)
}

func (d *queueDiff) forget(s *eslot) {
	for i, x := range d.live {
		if x == s {
			d.live[i] = d.live[len(d.live)-1]
			d.live = d.live[:len(d.live)-1]
			return
		}
	}
}

// check verifies the whole heap after an operation: the population matches
// the reference, every parent is no later than its children under eless,
// and every slot's pos is its index.
func (d *queueDiff) check() {
	if d.q.len() != len(d.ref) {
		d.t.Fatalf("heap len %d, reference %d", d.q.len(), len(d.ref))
	}
	for i, s := range d.q.h {
		if int(s.pos) != i {
			d.t.Fatalf("slot at index %d records pos %d", i, s.pos)
		}
		if p := (i - 1) / 2; i > 0 && eless(s, d.q.h[p]) {
			d.t.Fatalf("child %d (%v,%d) orders before its parent %d (%v,%d)", i, s.at, s.seq, p, d.q.h[p].at, d.q.h[p].seq)
		}
	}
	d.peak = max(d.peak, d.q.len())
}

// Differential: the event heap must pop exactly the slot the reference
// queue pops under randomized push, pop, remove, and pop-then-push-back,
// with the whole heap checked after every operation. Pushes mix
// same-timestamp bursts, sparse far-future events and ordinary near-term
// events; each seed grows the population into the thousands, then drains
// it.
func TestCalendarQueueMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := &queueDiff{t: t}
		for op := 0; op < 6000; op++ {
			pushBias := 7 // grow to thousands pending...
			if op >= 3000 {
				pushBias = 2 // ...then drain
			}
			switch r := rng.Intn(10); {
			case r < pushBias:
				switch rng.Intn(4) {
				case 0:
					d.push(d.now) // same-timestamp burst
				case 1:
					d.push(d.now + Time(rng.Float64()*1e6)) // sparse far future
				default:
					d.push(d.now + Time(rng.Float64()*10))
				}
			case r < pushBias+1:
				d.remove(rng.Intn(1 << 30))
			case r < pushBias+2:
				d.pop(false)
			default:
				d.pop(true)
			}
			d.check()
		}
		for len(d.ref) > 0 {
			d.pop(true)
			d.check()
		}
		if d.peak < 1000 {
			t.Fatalf("seed %d: pending events peaked at %d; the input must grow into the thousands", seed, d.peak)
		}
	}
}

// FuzzEventQueue runs the differential above on byte-driven operations. Each
// operation takes two bytes, an opcode and an argument: push at now, in the
// near future or in the far future; pop; peek; remove a live slot; pop then
// push back.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 5, 2, 9, 3, 0, 5, 1, 6, 0, 4, 0})
	f.Add([]byte{1, 200, 1, 3, 1, 3, 0, 0, 2, 1, 5, 2, 5, 0, 6, 0, 3, 0, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := &queueDiff{t: t}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			switch ops[i] % 7 {
			case 0:
				d.push(d.now)
			case 1:
				d.push(d.now + Time(arg)/16)
			case 2:
				d.push(d.now + 1e4 + Time(arg)*1e4)
			case 3:
				d.pop(true)
			case 4:
				d.peek()
			case 5:
				d.remove(int(arg))
			case 6:
				d.pop(false)
			}
			d.check()
		}
		for len(d.ref) > 0 {
			d.pop(true)
			d.check()
		}
	})
}

// Arena slots are recycled; a stale handle must stay inert even after its
// slot is reused by a new event.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	e := NewEngine(1)
	old := e.At(1, func() {})
	e.RunUntil(1)
	if !old.Cancelled() {
		t.Fatal("fired event's handle not Cancelled")
	}
	// The freed slot is reused by the next At; the generation bump makes
	// the old handle refuse to cancel the new event.
	fired := false
	e.At(2, func() { fired = true })
	e.Cancel(old) // must be a no-op
	e.Run()
	if !fired {
		t.Fatal("Cancel of a stale handle killed an unrelated event")
	}
}

func TestZeroEventHandle(t *testing.T) {
	var ev Event
	if !ev.Cancelled() {
		t.Fatal("zero Event not Cancelled")
	}
	e := NewEngine(1)
	e.Cancel(ev) // must not panic
}

// Stress the event queue through the engine: grow to thousands of pending
// events across a wide time span, drain half, schedule more at fine
// granularity, and verify dispatch times never regress. (The name is kept
// from the calendar queue the heap replaced.)
func TestCalendarQueueResizeStress(t *testing.T) {
	e := NewEngine(1)
	rng := rand.New(rand.NewSource(7))
	var last Time
	var fired int
	check := func(at Time) {
		if at < last {
			t.Fatalf("time regressed: %v after %v", at, last)
		}
		last = at
		fired++
	}
	n := 0
	for i := 0; i < 5000; i++ {
		at := Time(rng.Float64() * 1e6)
		e.At(at, func() { check(e.Now()) })
		n++
	}
	e.RunUntil(5e5)
	for i := 0; i < 5000; i++ {
		at := e.Now() + Time(rng.Float64()) // dense cluster near now
		e.At(at, func() { check(e.Now()) })
		n++
	}
	e.Run()
	if fired != n {
		t.Fatalf("fired %d of %d events", fired, n)
	}
}
