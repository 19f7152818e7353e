package wq

import (
	"testing"

	"lfm/internal/sim"
	"lfm/internal/tseries"
)

// telemetryRig is stragglerMakespan with a collector attached: 16 one-core
// 10s tasks on two 8-core workers, one slowed 10x.
func telemetryRig(t *testing.T, res ResilienceConfig, tcfg *tseries.Config) (sim.Time, *Master, *tseries.Collector) {
	t.Helper()
	cfg := oracleCfg()
	cfg.Resilience = res
	eng, m := testRig(t, 2, cfg)
	c := tseries.NewCollector(eng, tcfg)
	m.SetTelemetry(c)
	eng.At(0, func() {
		m.SlowWorker(m.workers[0], 10)
		for i := 0; i < 16; i++ {
			m.Submit(simpleTask(i, 10, 100))
		}
	})
	end := eng.Run()
	if got := m.Stats().Completed; got != 16 {
		t.Fatalf("completed = %d, want 16", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return end, m, c
}

// The flatline rule must rescue stragglers on its own, with no sink
// attached, even when the mean-multiplier rule is configured far too high
// to ever fire: the slow worker's 100 s attempts read the same usage from
// their start and pass twice the 10 s category mean at 20 s, so each gets
// a backup at the first scan after 30 s frozen.
func TestFlatlineTriggersSpeculation(t *testing.T) {
	end, m := stragglerMakespan(t, ResilienceConfig{SpeculationMultiplier: 1000})
	if end >= 60 {
		t.Fatalf("makespan with flatline speculation = %v, want < 60 (100 without)", end)
	}
	rs := m.Stats().Resilience
	if rs == nil || rs.SpecLaunched == 0 || rs.SpecWins == 0 {
		t.Fatalf("no flatline-triggered speculation: %+v", rs)
	}
}

// Telemetry records each attempt the flatline rule fires for as one
// AnomalyFlatline, and recording steers nothing: the run is the same with
// no collector and with anomaly recording disabled, which records none.
func TestFlatlineRecordedOnce(t *testing.T) {
	res := ResilienceConfig{SpeculationMultiplier: 1000}
	bare, mBare := stragglerMakespan(t, res)
	with, m, c := telemetryRig(t, res, tseries.DefaultConfig())
	off := tseries.DefaultConfig()
	off.Anomalies.Disable = true
	disabled, _, cOff := telemetryRig(t, res, off)
	if with != bare || disabled != bare {
		t.Fatalf("makespan %v with telemetry, %v with anomalies disabled, %v bare", with, disabled, bare)
	}
	rs, rsBare := m.Stats().Resilience, mBare.Stats().Resilience
	if rs.SpecLaunched != rsBare.SpecLaunched || rs.SpecWins != rsBare.SpecWins || rs.SpecWasteSeconds != rsBare.SpecWasteSeconds {
		t.Fatalf("resilience stats %+v with telemetry, %+v bare", *rs, *rsBare)
	}
	rt := c.Finalize(tseries.RunMeta{Makespan: with})
	type attemptKey struct{ task, attempt int }
	seen := map[attemptKey]bool{}
	for _, a := range rt.Anomalies {
		if a.Kind != tseries.AnomalyFlatline {
			continue
		}
		k := attemptKey{a.Task, a.Attempt}
		if seen[k] {
			t.Fatalf("attempt %+v flagged twice", k)
		}
		seen[k] = true
	}
	// The fast worker is idle by then, so every flatlined attempt gets a
	// backup.
	if len(seen) == 0 || len(seen) != rs.SpecLaunched {
		t.Fatalf("%d flatline anomalies for %d flatline-triggered backups", len(seen), rs.SpecLaunched)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := len(cOff.Finalize(tseries.RunMeta{Makespan: disabled}).Anomalies); n != 0 {
		t.Fatalf("%d anomalies recorded with recording disabled", n)
	}
}

// Telemetry through the master: every attempt recorded, node timelines
// opened per worker, and the allocated integral bracketing the used one.
func TestMasterTelemetryAccounting(t *testing.T) {
	end, _, c := telemetryRig(t, ResilienceConfig{}, nil)
	rt := c.Finalize(tseries.RunMeta{Makespan: end})
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(rt.Nodes) != 2 {
		t.Fatalf("node timelines = %d, want 2", len(rt.Nodes))
	}
	if len(rt.Attempts) < 16 {
		t.Fatalf("attempts recorded = %d, want >= 16", len(rt.Attempts))
	}
	completed := 0
	for _, a := range rt.Attempts {
		if a.Outcome == "completed" {
			completed++
		}
		if a.Peak.MemoryMB != 100 {
			t.Fatalf("attempt %d peak %v, want 100MB", a.Task, a.Peak)
		}
	}
	if completed != 16 {
		t.Fatalf("completed attempts = %d, want 16", completed)
	}
	if rt.Util.AllocatedCoreSeconds <= 0 {
		t.Fatal("no allocation recorded")
	}
	if rt.Util.UsedCoreSeconds <= 0 || rt.Util.UsedCoreSeconds > rt.Util.AllocatedCoreSeconds+1e-9 {
		t.Fatalf("used %g vs allocated %g", rt.Util.UsedCoreSeconds, rt.Util.AllocatedCoreSeconds)
	}
	if len(rt.Profiles) != 1 || rt.Profiles[0].Completed != 16 {
		t.Fatalf("profiles = %+v", rt.Profiles)
	}
}

// A telemetry-enabled run must behave identically to a bare one: same
// makespan, same stats, same placements (checked via the stats snapshot) —
// recording is passive.
func TestTelemetryBehaviorNeutral(t *testing.T) {
	run := func(withTelem bool) (sim.Time, Stats) {
		eng, m := testRig(t, 2, oracleCfg())
		if withTelem {
			m.SetTelemetry(tseries.NewCollector(eng, nil))
		}
		eng.At(0, func() {
			for i := 0; i < 16; i++ {
				m.Submit(simpleTask(i, 10, 100))
			}
		})
		end := eng.Run()
		return end, *m.Stats()
	}
	endBare, statsBare := run(false)
	endTelem, statsTelem := run(true)
	if endBare != endTelem {
		t.Fatalf("makespan changed under telemetry: %v vs %v", endTelem, endBare)
	}
	type scalars struct {
		submitted, completed, failed, retries, lost int
		peakCores                                   float64
		waitMean, usedSum                           float64
	}
	snap := func(s Stats) scalars {
		return scalars{
			s.Submitted, s.Completed, s.Failed, s.Retries, s.LostTasks,
			s.PeakCoresUsed, s.WaitTimes.Mean(), s.UsedCoreSeconds.Sum(),
		}
	}
	if snap(statsBare) != snap(statsTelem) {
		t.Fatalf("stats changed under telemetry:\n%+v\n%+v", snap(statsTelem), snap(statsBare))
	}
}
