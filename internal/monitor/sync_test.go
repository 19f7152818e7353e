package monitor

import (
	"reflect"
	"testing"

	"lfm/internal/metrics"
	"lfm/internal/sim"
	"lfm/internal/trace"
)

// syncRun is what the fold is compared on across a whole engine: every
// run's observed stream and report, and lfm_polls_total at every boundary
// of each of two samplers.
type syncRun struct {
	Streams [][]obsSample
	Reports []Report
	Polls   [2][]metrics.Point
	Zombies int
}

// runSynced starts many observed runs on one engine whose two metrics
// samplers, at one cadence as the metrics sampler and the obs bus often
// are, each fold the monitor's polls (Sync) before each boundary, so the
// second Sync at a boundary finds it synced; under the grid walker or
// under the eager reference poller. Runs start on whole and half
// seconds with whole-second phases and forks on a one-second grid, so
// completions, forks, kill decisions, deferred zombie kills and the
// half-second sampler boundaries all land on poll grid points.
func runSynced(eager bool) syncRun {
	eng := sim.NewEngine(1)
	reg := metrics.NewRegistry()
	delays := []sim.Time{1, 0, 0.5, 2, 3}
	kills := 0
	m := New(eng, Config{
		PollInterval: sim.Second, TrackProcessEvents: true, Metrics: reg,
		KillDelay: func() sim.Time { kills++; return delays[kills%len(delays)] },
	})
	if eager {
		m.armPolls = eagerPolls
	}
	var samplers [2]*metrics.Sampler
	for i := range samplers {
		samplers[i] = metrics.NewSampler(eng, reg, sim.Second/2)
		samplers[i].SetSync(m.Sync)
	}
	rng := sim.NewRNG(11)
	whole := func(lo, hi int) sim.Time { return sim.Time(lo + rng.Intn(hi-lo+1)) }
	const runs = 120
	out := syncRun{Streams: make([][]obsSample, runs), Reports: make([]Report, runs)}
	for i := range runs {
		spec := ProcSpec{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			spec.Phases = append(spec.Phases, Phase{Duration: whole(1, 9), Usage: res(1, float64(100*(1+rng.Intn(8))), 10)})
		}
		if rng.Intn(3) == 0 {
			spec.Children = []ChildSpec{{StartOffset: whole(0, 5), Spec: Proc(whole(1, 4), res(1, float64(100*rng.Intn(6)), 0))}}
		}
		var limits Resources
		if rng.Intn(2) == 0 {
			limits = res(0, 550, 0)
		}
		start := whole(0, 30)
		if rng.Intn(4) == 0 {
			start += 0.5
		}
		obs := func(at sim.Time, u Resources, src Source) {
			out.Streams[i] = append(out.Streams[i], obsSample{at, u, src})
		}
		eng.At(start, func() {
			m.RunObserved(spec, limits, nil, trace.NoSpan, obs, func(r Report) { out.Reports[i] = r })
		})
	}
	for _, s := range samplers {
		eng.At(0, s.Start)
	}
	eng.Run()
	for i, s := range samplers {
		out.Polls[i] = s.Find("lfm_polls_total").Points
	}
	for _, r := range out.Reports {
		if r.Zombie {
			out.Zombies++
		}
	}
	return out
}

// TestSyncMatchesEagerPolls runs the fold, with Sync before every boundary
// of two samplers, against the eager one-event-per-poll reference on the
// same runs: every observed stream and report, and lfm_polls_total at
// every boundary of either sampler, must be equal.
func TestSyncMatchesEagerPolls(t *testing.T) {
	fold, eager := runSynced(false), runSynced(true)
	if eager.Zombies == 0 || len(eager.Polls[1]) < 60 {
		t.Fatalf("reference has %d zombie kills and %d boundaries; the case lost its coverage", eager.Zombies, len(eager.Polls[1]))
	}
	for i := range eager.Reports {
		if !reflect.DeepEqual(fold.Streams[i], eager.Streams[i]) {
			t.Fatalf("run %d: observed stream\n fold: %v\neager: %v", i, fold.Streams[i], eager.Streams[i])
		}
		if !reflect.DeepEqual(fold.Reports[i], eager.Reports[i]) {
			t.Fatalf("run %d: report\n fold: %+v\neager: %+v", i, fold.Reports[i], eager.Reports[i])
		}
	}
	if !reflect.DeepEqual(fold.Polls, eager.Polls) {
		t.Fatalf("lfm_polls_total at the boundaries\n fold: %v\neager: %v", fold.Polls, eager.Polls)
	}
}
