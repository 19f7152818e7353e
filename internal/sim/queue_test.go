package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// onCalendar runs f as a subtest named for the engine's event queue, the
// calendar queue, so each property below reports under that queue's name.
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

func (r *refQueue) pop() *eslot {
	if len(*r) == 0 {
		return nil
	}
	m := 0
	for i, s := range *r {
		if eless(s, (*r)[m]) {
			m = i
		}
	}
	s := (*r)[m]
	r.removeAt(m)
	return s
}

func (r *refQueue) remove(s *eslot) {
	for i, x := range *r {
		if x == s {
			r.removeAt(i)
			return
		}
	}
}

func (r *refQueue) removeAt(i int) {
	q := *r
	q[i] = q[len(q)-1]
	*r = q[:len(q)-1]
}

// Differential: the calendar queue must pop exactly the slot the reference
// queue pops under randomized push, pop, remove, and pop-then-push-back (the
// engine's peek at a RunUntil limit). Pushes mix same-timestamp bursts,
// sparse far-future events and ordinary near-term events; each seed grows
// the population past several doubling resizes, then drains it through the
// shrink threshold.
func TestCalendarQueueMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newCalendarQueue()
		var ref refQueue
		var live []*eslot
		var now Time
		var seq uint64
		peakBuckets := 0
		push := func() {
			var at Time
			switch rng.Intn(4) {
			case 0:
				at = now // same-timestamp burst
			case 1:
				at = now + Time(rng.Float64()*1e6) // sparse far future
			default:
				at = now + Time(rng.Float64()*10)
			}
			s := &eslot{at: at, seq: seq}
			seq++
			q.push(s)
			ref.push(s)
			live = append(live, s)
		}
		forget := func(s *eslot) {
			for i, x := range live {
				if x == s {
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					return
				}
			}
		}
		pop := func(op int) *eslot {
			got, want := q.pop(), ref.pop()
			if got != want {
				t.Fatalf("seed %d op %d: calendar popped %+v, reference %+v", seed, op, got, want)
			}
			return got
		}
		for op := 0; op < 6000; op++ {
			pushBias := 6 // grow to thousands pending...
			if op >= 3000 {
				pushBias = 2 // ...then drain back below the shrink threshold
			}
			switch r := rng.Intn(10); {
			case r < pushBias:
				push()
			case r < pushBias+1 && len(live) > 0:
				s := live[rng.Intn(len(live))]
				q.remove(s)
				ref.remove(s)
				forget(s)
			case r < pushBias+2:
				if s := pop(op); s != nil {
					q.push(s)
					ref.push(s)
				}
			default:
				if s := pop(op); s != nil {
					now = s.at
					forget(s)
				}
			}
			if q.len() != len(ref) {
				t.Fatalf("seed %d op %d: calendar len %d, reference %d", seed, op, q.len(), len(ref))
			}
			peakBuckets = max(peakBuckets, len(q.buckets))
		}
		for len(ref) > 0 {
			pop(-1)
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: calendar holds %d slots after drain", seed, q.len())
		}
		if peakBuckets < 256 || len(q.buckets) != minBuckets {
			t.Fatalf("seed %d: buckets peaked at %d and ended at %d; the input must grow past 256 and shrink back to %d",
				seed, peakBuckets, len(q.buckets), minBuckets)
		}
	}
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

// Stress the calendar queue's resize and bucket-migration machinery: grow
// to thousands of pending events across a wide time span, drain half,
// schedule more at fine granularity, and verify global (at,seq) order.
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
