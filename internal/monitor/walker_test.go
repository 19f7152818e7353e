package monitor

import (
	"reflect"
	"testing"

	"lfm/internal/sim"
)

// tieConfig polls every second with no setup overhead, so grid point k sits
// at start + k seconds, and records every sample.
func tieConfig(events bool) Config {
	return Config{PollInterval: sim.Second, TrackProcessEvents: events, RecordSeries: true}
}

func tieCase(cfg Config, spec ProcSpec, limits Resources) pollCase {
	return pollCase{cfg: cfg, spec: spec, limits: limits, abortAt: -1}
}

// sampleAt lists a report's samples at one instant, in order, as "poll" or
// "event".
func sampleAt(rep Report, at sim.Time) []string {
	var kinds []string
	for _, s := range rep.Series {
		if s.At == at {
			kind := "poll"
			if s.FromEvent {
				kind = "event"
			}
			kinds = append(kinds, kind)
		}
	}
	return kinds
}

// Poll 1 is pushed before the completion event, so a task exactly one
// interval long is polled at its end before it completes.
func TestPollTieDurationEqualsInterval(t *testing.T) {
	got := lazyMatchesEager(t, tieCase(tieConfig(true), Proc(1, res(1, 100, 0)), Resources{}))
	if got.Rep.Polls != 2 || !got.Rep.Completed {
		t.Fatalf("report = %+v, want completion after the initial poll and poll 1", got.Rep)
	}
	if kinds := sampleAt(got.Rep, 1); !reflect.DeepEqual(kinds, []string{"poll", "event"}) {
		t.Fatalf("samples at t=1 = %v, want poll 1 before the final measurement", kinds)
	}
}

// Poll 3 is pushed when poll 2 fires, after the completion event, so a
// task lasting three intervals (summed as the poller sums them) completes
// before its third poll.
func TestPollTieCompletionOnThirdGridPoint(t *testing.T) {
	cfg := tieConfig(false)
	cfg.PollInterval = 0.1
	d := cfg.PollInterval + cfg.PollInterval + cfg.PollInterval // 0.30000000000000004
	got := lazyMatchesEager(t, tieCase(cfg, Proc(d, res(1, 100, 0)), Resources{}))
	if got.Rep.Polls != 3 || !got.Rep.Completed || got.Rep.WallTime != d {
		t.Fatalf("report = %+v, want completion at %v before poll 3", got.Rep, d)
	}
}

// A fork or exit on grid point k >= 2 was pushed before poll k, so it is
// measured first; on grid point 1 the poll goes first.
func TestPollTieProcEventOnGridPoint(t *testing.T) {
	spec := Proc(6, res(1, 100, 0))
	spec.Children = []ChildSpec{
		{StartOffset: 1, Spec: Proc(1, res(1, 50, 0))},
		{StartOffset: 3, Spec: Proc(2, res(1, 200, 0))},
	}
	got := lazyMatchesEager(t, tieCase(tieConfig(true), spec, Resources{}))
	for _, c := range []struct {
		at   sim.Time
		want []string
	}{
		{1, []string{"poll", "event"}},
		{2, []string{"event", "poll"}},
		{3, []string{"event", "poll"}},
		{5, []string{"event", "poll"}},
	} {
		if kinds := sampleAt(got.Rep, c.at); !reflect.DeepEqual(kinds, c.want) {
			t.Errorf("samples at t=%v = %v, want %v", c.at, kinds, c.want)
		}
	}
}

// A kill decided on grid point 1 and on grid point 3 ends the run there.
func TestPollTieKillOnGridPoint(t *testing.T) {
	for _, c := range []struct {
		name   string
		before sim.Time
		want   sim.Time
		polls  int
	}{
		{"point-1", 0.5, 1, 2},
		{"point-3", 2.5, 3, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := ProcSpec{Phases: []Phase{
				{Duration: c.before, Usage: res(1, 100, 0)},
				{Duration: 10, Usage: res(1, 900, 0)},
			}}
			got := lazyMatchesEager(t, tieCase(tieConfig(true), spec, res(0, 500, 0)))
			if !got.Rep.Killed || got.Rep.End != c.want || got.Rep.Polls != c.polls {
				t.Fatalf("report = %+v, want kill at %v after %d polls", got.Rep, c.want, c.polls)
			}
		})
	}
}

// A bare run's kill on grid point k >= 2 keeps eager poll k's place among
// other runs' events at the same instant: after events pushed before grid
// point k-1, ahead of events pushed after it.
func TestPollTieKillOrderAgainstOtherRuns(t *testing.T) {
	order := func(eager bool) []string {
		eng := sim.NewEngine(1)
		m := New(eng, tieConfig(true))
		if eager {
			m.armPolls = eagerPolls
		}
		var got []string
		run := func(name string, at sim.Time, spec ProcSpec, limits Resources) {
			eng.At(at, func() {
				m.Run(spec, limits, func(Report) { got = append(got, name) })
			})
		}
		// killed is killed by poll 3 at t=3, which eager polling pushes at
		// t=2. early ends at t=3 from an event pushed at t=1, late from one
		// pushed at t=2.5.
		run("killed", 0, ProcSpec{Phases: []Phase{
			{Duration: 2.5, Usage: res(1, 100, 0)},
			{Duration: 10, Usage: res(1, 900, 0)},
		}}, res(0, 500, 0))
		run("early", 1, Proc(2, res(1, 100, 0)), Resources{})
		run("late", 2.5, Proc(0.5, res(1, 100, 0)), Resources{})
		eng.Run()
		return got
	}
	want := []string{"early", "killed", "late"}
	if got := order(true); !reflect.DeepEqual(got, want) {
		t.Fatalf("eager reference order = %v, want %v", got, want)
	}
	if got := order(false); !reflect.DeepEqual(got, want) {
		t.Fatalf("walker order = %v, want %v", got, want)
	}
}

// A zombie's deferred kill that lands on grid point k fires after poll k
// when poll k was pushed before the kill was decided (decision at
// T > t_{k-1}), and before it otherwise (T <= t_{k-1}).
func TestPollTieZombieKillOnGridPoint(t *testing.T) {
	for _, c := range []struct {
		name string
		// fork is when a 0.2 s, 800 MB child spike starts (0: the parent's
		// own second phase trips at t=1.5 instead); delay is the kill
		// delay. The spike ends before the next grid point, so no poll of
		// a bare run trips and the kill alone decides whether poll 3 runs.
		fork, delay sim.Time
		polls       int
	}{
		// Decided by poll 2 at t=2; the kill lands on t=3 before poll 3.
		{"decided-by-poll", 0, 1, 3},
		// Decided at a fork at t=2.5 > t_2; poll 3 was already pushed.
		{"decided-after-previous-point", 2.5, 0.5, 4},
		// Decided at a fork at t=1.5 < t_2; poll 3 is pushed later.
		{"decided-before-previous-point", 1.5, 1.5, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := ProcSpec{Phases: []Phase{{Duration: 10, Usage: res(1, 100, 0)}}}
			if c.fork == 0 {
				spec.Phases = []Phase{
					{Duration: 1.5, Usage: res(1, 100, 0)},
					{Duration: 10, Usage: res(1, 900, 0)},
				}
			} else {
				spec.Children = []ChildSpec{{StartOffset: c.fork, Spec: Proc(0.2, res(1, 800, 0))}}
			}
			cfg := tieConfig(c.fork != 0)
			delay := c.delay
			cfg.KillDelay = func() sim.Time { return delay }
			got := lazyMatchesEager(t, tieCase(cfg, spec, res(0, 500, 0)))
			if !got.Rep.Killed || !got.Rep.Zombie || got.Rep.End != 3 || got.Rep.Polls != c.polls {
				t.Fatalf("report = %+v, want zombie killed at t=3 after %d polls", got.Rep, c.polls)
			}
		})
	}
}

// An abort discards the report; the walker still leaves it as the eager
// poller would have, mid-interval and on a grid point alike.
func TestPollTieAbortMidRun(t *testing.T) {
	for _, at := range []sim.Time{2.5, 3} {
		c := tieCase(tieConfig(true), Proc(10, res(1, 100, 0)), Resources{})
		c.abortAt = at
		got := lazyMatchesEager(t, c)
		if got.Reported || got.Rep.End != at || got.End != at {
			t.Fatalf("abort at %v: %+v", at, got)
		}
	}
}
