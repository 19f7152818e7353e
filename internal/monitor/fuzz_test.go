package monitor

import (
	"testing"

	"lfm/internal/sim"
)

// fuzzBytes reads a fuzz input a byte at a time, yielding zeros once it
// runs out, so every input decodes to some case.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// duration decodes a whole-second duration (even bytes, 0-7 s) or a
// fractional one (odd bytes, multiples of 0.1 s up to 12.7 s).
func (b *fuzzBytes) duration() sim.Time {
	c := b.next()
	if c&1 == 0 {
		return sim.Time(c >> 1 % 8)
	}
	return sim.Time(c>>1) / 10
}

func (b *fuzzBytes) usage() Resources {
	c := b.next()
	return res(float64(c%3), float64(c>>2%8)*100, float64(c>>5)*10)
}

// spec decodes a process with 1-4 phases and, while budget lasts, up to 3
// forked children in total across the tree.
func (b *fuzzBytes) spec(budget *int) ProcSpec {
	var p ProcSpec
	for n := int(b.next()%4) + 1; n > 0; n-- {
		p.Phases = append(p.Phases, Phase{Duration: b.duration(), Usage: b.usage()})
	}
	for n := int(b.next() % 4); n > 0 && *budget > 0; n-- {
		*budget--
		off := b.duration()
		p.Children = append(p.Children, ChildSpec{StartOffset: off, Spec: b.spec(budget)})
	}
	return p
}

// decodePollCase builds a pollCase from a fuzz input: the process tree,
// then the poll interval, start time, limits, flags, kill delay and abort
// time.
func decodePollCase(data []byte) pollCase {
	b := fuzzBytes(data)
	budget := 3
	c := pollCase{spec: b.spec(&budget), abortAt: -1}
	polls := []sim.Time{1, 0.5, 0.1, 0.25, 2, 0.3, 0.7, 1.5}
	c.cfg.PollInterval = polls[b.next()%8]
	c.startAt = b.duration()
	lim := b.next()
	c.limits = res(float64(lim%3), float64(lim>>2%8)*100, float64(lim>>5)*10)
	flags := b.next()
	c.cfg.TrackProcessEvents = flags&1 != 0
	c.observe = flags&2 != 0
	if flags&4 != 0 {
		c.cfg.Overhead = 20 * sim.Millisecond
	}
	c.cfg.RecordSeries = true
	if d := b.duration(); d > 0 {
		c.cfg.KillDelay = func() sim.Time { return d }
	}
	if flags&8 != 0 {
		c.abortAt = c.startAt + b.duration()
	}
	return c
}

// FuzzLazyPolls runs random process trees under the grid walker and under
// the eager reference poller and requires the same report (series on),
// observed stream, delivery and final engine time.
func FuzzLazyPolls(f *testing.F) {
	for _, seed := range [][]byte{
		// Layout: phase count, (duration, usage) per phase, child count,
		// (offset, child spec) per child, then poll, start, limits, flags,
		// kill delay and, with flag 8, the abort offset. Usage 5 is 2 cores
		// and 100 MB, 29 is 2 cores and 700 MB; limits 20 cap cores at 2
		// and memory at 500 MB.
		// A 1 s task polled every second: poll 1 beats completion.
		{0, 2, 5, 0, 0, 0, 0, 0, 0},
		// A 0.3 s task against 0.1 s polls summed by repeated addition.
		{0, 7, 5, 0, 2, 0, 0, 0, 0},
		// A child forking at t=2 and exiting at t=4, event tracking on.
		{0, 12, 5, 1, 4, 0, 4, 9, 0, 0, 0, 0, 1, 0},
		// Memory trips at 0.5 s (kill on grid point 1) and at 2.5 s
		// (grid point 3).
		{1, 11, 5, 12, 29, 0, 0, 0, 20, 0, 0},
		{1, 51, 5, 12, 29, 0, 0, 0, 20, 0, 0},
		// Poll 2 trips; the 1 s kill delay lands on grid point 3.
		{1, 31, 5, 12, 29, 0, 0, 0, 20, 0, 2},
		// A 0.2 s child spike at 2.5 s trips; the 0.5 s kill delay lands
		// on grid point 3.
		{0, 201, 5, 1, 51, 0, 5, 29, 0, 0, 0, 20, 1, 11},
		// Observed runs aborted on grid point 3 and at 2.5 s.
		{0, 201, 5, 0, 0, 0, 0, 10, 0, 6},
		{0, 201, 5, 0, 0, 0, 0, 10, 0, 51},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lazyMatchesEager(t, decodePollCase(data))
	})
}
