package monitor

import (
	"slices"
	"testing"

	"lfm/internal/sim"
)

// streamFrozen is the frozen stretch an observer finds in s as of q: the
// first instant of the last run of equal usage among the measurements at
// or before q, or q when there are none.
func streamFrozen(s []obsSample, q sim.Time) sim.Time {
	since := q
	for i, x := range s {
		if x.At > q {
			break
		}
		if i == 0 || x.U != s[i-1].U {
			since = x.At
		}
	}
	return since
}

// frozenMatchesStream runs c observed under the eager reference poller and
// requires FrozenSince to equal the stretch its observed stream shows at
// every measurement instant (grid points included), midway between
// consecutive ones, and before the start. It queries only instants before
// the run ended: FrozenSince does not foresee a kill or an abort.
func frozenMatchesStream(t *testing.T, c pollCase) {
	t.Helper()
	c.observe = true
	got, ex := runPolls(c, true)
	qs := []sim.Time{c.startAt}
	for i, x := range got.Stream {
		qs = append(qs, x.At)
		if i > 0 {
			qs = append(qs, (got.Stream[i-1].At+x.At)/2)
		}
	}
	slices.Sort(qs)
	for _, q := range slices.Compact(qs) {
		if len(got.Stream) > 0 && q >= got.Rep.End {
			break
		}
		if want, have := streamFrozen(got.Stream, q), ex.FrozenSince(q); have != want {
			t.Fatalf("FrozenSince(%v) = %v, stream says %v\nstream: %v", q, have, want, got.Stream)
		}
	}
}

// FrozenSince on random trees — whole-second phases drawn from few usage
// levels, so equal neighbours and forks that change nothing are common,
// event tracking on and off, grids that tie with phase ends and forks —
// must find the stretch the eager poller's observed stream shows, and
// must not allocate.
func TestFrozenSinceMatchesEagerStream(t *testing.T) {
	rng := sim.NewRNG(5)
	levels := []Resources{res(1, 100, 0), res(1, 200, 0), res(0, 0, 0)}
	polls := []sim.Time{1, 0.5, 2, 0.3}
	var proc func(depth int) ProcSpec
	proc = func(depth int) ProcSpec {
		var p ProcSpec
		for n := 1 + rng.Intn(4); n > 0; n-- {
			p.Phases = append(p.Phases, Phase{Duration: sim.Time(1 + rng.Intn(12)), Usage: levels[rng.Intn(len(levels))]})
		}
		for n := rng.Intn(3); depth < 2 && n > 0; n-- {
			p.Children = append(p.Children, ChildSpec{StartOffset: sim.Time(rng.Intn(10)), Spec: proc(depth + 1)})
		}
		return p
	}
	for i := range 400 {
		c := pollCase{abortAt: -1, startAt: sim.Time(rng.Intn(5)) / 2, spec: proc(0)}
		c.cfg.PollInterval = polls[i%len(polls)]
		c.cfg.TrackProcessEvents = i%3 != 0
		if i%5 == 0 {
			c.cfg.Overhead = 20 * sim.Millisecond
		}
		frozenMatchesStream(t, c)
	}
	_, ex := runPolls(pollCase{abortAt: -1, spec: proc(0), cfg: Config{PollInterval: 0.5, TrackProcessEvents: true}}, true)
	if n := testing.AllocsPerRun(20, func() { ex.FrozenSince(40) }); n != 0 {
		t.Fatalf("FrozenSince allocates %v objects per call", n)
	}
}
