package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineDispatchOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("end time = %v, want 3", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("dispatch order = %v, want [1 2 3]", order)
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want ascending scheduling order", order)
		}
	}
}

func TestEngineAfterAccumulates(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.After(1, func() {
		times = append(times, e.Now())
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v, want [1 3]", times)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(1, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event does not report cancelled")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine(1)
	var got []int
	evs := make([]Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = e.At(Time(i+1), func() { got = append(got, i) })
	}
	e.Cancel(evs[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2)
	if len(fired) != 2 {
		t.Fatalf("fired %v before limit, want 2 events", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after full run, want 4 events", fired)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d after Stop, want 1", count)
	}
	e.Run() // resumes
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineMaxEventsGuard(t *testing.T) {
	e := NewEngine(1)
	e.MaxEvents = 10
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway loop did not trip MaxEvents")
		}
	}()
	e.Run()
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var out []Time
		var tick func()
		tick = func() {
			out = append(out, e.Now())
			if len(out) < 50 {
				e.After(Time(e.RNG().Exponential(1)), tick)
			}
		}
		e.After(0, tick)
		e.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeDuration(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0.000001, "1us"},
		{0.5, "500.0ms"},
		{1.5, "1.50s"},
		{90, "1.5m"},
		{7200, "2.00h"},
		{-90, "-1.5m"},
	}
	for _, c := range cases {
		if got := c.in.Duration(); got != c.want {
			t.Errorf("Duration(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: events always dispatch in nondecreasing time order regardless of
// insertion order.
func TestEngineHeapOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine(7)
		var seen []Time
		for _, d := range delays {
			at := Time(d)
			e.At(at, func() { seen = append(seen, at) })
		}
		e.Run()
		return !math.IsNaN(0) && isNonDecreasing(seen) && len(seen) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func isNonDecreasing(ts []Time) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			return false
		}
	}
	return true
}

// TestEngineEvery pins the clock-boundary contract: each grid point the
// clock moves past fires once, in order, after that round's deferred
// procedures and before any later event; several tickers interleave in
// time order; a drained run fires once more at its final time, which is
// the only firing of a grid point it ends on; and a registration changes
// neither Pending, Processed nor Run's end time.
func TestEngineEvery(t *testing.T) {
	build := func(log *[]string) *Engine {
		e := NewEngine(1)
		e.At(0.5, func() {
			*log = append(*log, "ev0.5")
			e.Defer(func() { *log = append(*log, "def0.5") })
		})
		e.At(2.5, func() { *log = append(*log, "ev2.5") })
		e.At(4, func() { *log = append(*log, "ev4") })
		return e
	}
	var bare []string
	plain := build(&bare)
	plainPending := plain.Pending()
	plainEnd := plain.Run()

	var log []string
	e := build(&log)
	e.Every(1, func(at Time) { log = append(log, fmt.Sprintf("tick%v", float64(at))) })
	if e.Pending() != plainPending {
		t.Fatalf("pending = %d with a ticker, %d without", e.Pending(), plainPending)
	}
	if end := e.Run(); end != plainEnd || e.Processed != plain.Processed {
		t.Fatalf("run ended at %v after %d dispatches, want %v after %d", end, e.Processed, plainEnd, plain.Processed)
	}
	want := []string{"tick0", "ev0.5", "def0.5", "tick1", "tick2", "ev2.5", "tick3", "ev4", "tick4"}
	if !slices.Equal(log, want) {
		t.Fatalf("order = %v, want %v", log, want)
	}

	// Two tickers crossed by one gap fire in time order, interleaved, and
	// at a shared instant in registration order.
	e = NewEngine(1)
	log = nil
	e.Every(1, func(at Time) { log = append(log, fmt.Sprintf("a%v", float64(at))) })
	e.Every(1.5, func(at Time) { log = append(log, fmt.Sprintf("b%v", float64(at))) })
	e.At(3.5, func() { log = append(log, "ev3.5") })
	e.Run()
	want = []string{"a0", "b0", "a1", "b1.5", "a2", "a3", "b3", "ev3.5", "a3.5", "b3.5"}
	if !slices.Equal(log, want) {
		t.Fatalf("two-ticker order = %v, want %v", log, want)
	}

	// A drain off the grid fires at the final time; a stopped ticker is
	// silent from then on.
	e = NewEngine(1)
	var ats []Time
	tk := e.Every(2, func(at Time) { ats = append(ats, at) })
	e.At(3, func() {})
	e.Run()
	if !slices.Equal(ats, []Time{0, 2, 3}) {
		t.Fatalf("off-grid drain fired at %v, want [0 2 3]", ats)
	}
	tk.Stop()
	e.At(9, func() {})
	e.Run()
	if len(ats) != 3 {
		t.Fatalf("stopped ticker fired at %v", ats[3:])
	}
}
