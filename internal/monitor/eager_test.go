package monitor

import (
	"math"
	"reflect"
	"testing"

	"lfm/internal/sim"
	"lfm/internal/trace"
)

// eagerPolls is the poller the grid walker replaced, kept as the reference
// the walker is checked against: every poll is its own engine event, pushed
// when the previous poll fires. It parks the walker (no grid point is ever
// due) so catchUp folds nothing.
func eagerPolls(r *run) {
	r.nextAt = sim.Time(math.Inf(1))
	r.schedulePoll()
}

// measure is the eager poller's measurement: usage at the engine's clock.
func (r *run) measure(src measureSource) { r.measureAt(src, r.m.Eng.Now()) }

func (r *run) schedulePoll() {
	if r.wakeFn == nil {
		r.wakeFn = func() {
			r.measure(byPoll)
			if !r.finished {
				r.schedulePoll()
			}
		}
	}
	r.wakeEv = r.m.Eng.After(r.m.Cfg.PollInterval, r.wakeFn)
}

// pollCase is one monitored execution on a fresh engine.
type pollCase struct {
	cfg    Config
	spec   ProcSpec
	limits Resources
	// startAt is when Run is called; abortAt, when non-negative, is when
	// the execution is aborted. The abort event is pushed first, so it
	// dispatches before any event of the run at the same instant.
	startAt, abortAt sim.Time
	// observe attaches a measurement observer, which makes the run live.
	observe bool
}

// pollRun is everything a pollCase can be compared on.
type pollRun struct {
	// Rep is the run's report as it stood at the end, delivered or not
	// (an aborted run's report is discarded but still compared).
	Rep      Report
	Reported bool
	Stream   []obsSample
	// End is the engine's final time.
	End sim.Time
}

// runPolls executes c under the grid walker, or under the eager reference.
func runPolls(c pollCase, eager bool) pollRun {
	eng := sim.NewEngine(1)
	m := New(eng, c.cfg)
	if eager {
		m.armPolls = eagerPolls
	}
	var out pollRun
	var ex *Execution
	if c.abortAt >= 0 {
		eng.At(c.abortAt, func() {
			if ex != nil {
				ex.Abort()
			}
		})
	}
	var obs Observer
	if c.observe {
		obs = func(at sim.Time, u Resources, src Source) {
			out.Stream = append(out.Stream, obsSample{at, u, src})
		}
	}
	eng.At(c.startAt, func() {
		ex = m.RunObserved(c.spec, c.limits, nil, trace.NoSpan, obs, func(Report) { out.Reported = true })
	})
	out.End = eng.Run()
	out.Rep = ex.r.rep
	return out
}

// lazyMatchesEager runs c under both pollers, fails on any difference, and
// returns the eager reference's result.
func lazyMatchesEager(t *testing.T, c pollCase) pollRun {
	t.Helper()
	lazy, eager := runPolls(c, false), runPolls(c, true)
	if !reflect.DeepEqual(lazy, eager) {
		t.Fatalf("walker diverges from the eager poller\n lazy: %+v\neager: %+v", lazy, eager)
	}
	return eager
}
