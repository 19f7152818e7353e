package diffobs_test

import (
	"strings"
	"testing"

	"lfm/internal/core"
	"lfm/internal/diffobs"
	"lfm/internal/obs"
	"lfm/internal/runarchive"
	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// buildArchive runs a small traced+observed HEP workload and archives it.
// customize mutates the materialized config — the stand-in for a
// behaviour-changing code edit.
func buildArchive(t *testing.T, seed int64, cadence sim.Time, ringCap int, customize func(*core.RunConfig)) *runarchive.Archive {
	t.Helper()
	cfg := core.ScenarioConfig{Workers: 8, WorkerCores: 4, Seed: seed}
	w := workloads.HEP(sim.NewRNG(seed), 60)
	tr := &wq.Trace{}
	out, err := cfg.RunScenario(w, func(rc *core.RunConfig) {
		rc.Trace = tr
		rc.Obs = &obs.Config{Cadence: cadence, RingCap: ringCap}
		if customize != nil {
			customize(rc)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return runarchive.Build(out, cfg, runarchive.BuildOptions{Events: true})
}

func TestDiffIdenticalRunsAllNeutral(t *testing.T) {
	a := buildArchive(t, 7, 5*sim.Second, 32, nil)
	b := buildArchive(t, 7, 5*sim.Second, 32, nil)
	r := diffobs.Diff(a, b, nil)
	if !r.SameConfig {
		t.Errorf("SameConfig = false for identical configs")
	}
	if r.Regressed != 0 || r.Improved != 0 {
		for _, m := range r.Metrics {
			if m.Class != diffobs.ClassNeutral {
				t.Errorf("metric %s: %s (base %.4g cand %.4g)", m.Name, m.Class, m.Base, m.Cand)
			}
		}
		t.Fatalf("identical runs: improved=%d regressed=%d, want 0/0", r.Improved, r.Regressed)
	}
	if r.Neutral != len(r.Metrics) || r.Neutral == 0 {
		t.Fatalf("neutral=%d metrics=%d, want all (and nonzero)", r.Neutral, len(r.Metrics))
	}
	if r.Attribution != nil {
		t.Errorf("attribution attached to an all-neutral diff")
	}
}

func TestDiffPerturbedRunRegresses(t *testing.T) {
	base := buildArchive(t, 7, 5*sim.Second, 32, nil)
	perturb, err := diffobs.Perturbation("workers-halved")
	if err != nil {
		t.Fatal(err)
	}
	cand := buildArchive(t, 7, 5*sim.Second, 32, perturb)
	r := diffobs.Diff(base, cand, nil)
	if r.Regressed == 0 {
		t.Fatalf("halving the pool regressed nothing; metrics: %+v", r.Metrics)
	}
	names := map[string]bool{}
	for _, m := range r.Regressions() {
		names[m.Name] = true
		if m.Delta == 0 {
			t.Errorf("regressed metric %s has zero delta", m.Name)
		}
	}
	if !names["makespan_s"] {
		t.Errorf("makespan did not regress when the pool was halved; regressed: %v", names)
	}
	if r.Attribution == nil {
		t.Fatalf("no attribution on a regressed diff")
	}
	if len(r.Attribution.Buckets) == 0 && len(r.Attribution.Phases) == 0 {
		t.Errorf("attribution has neither bucket nor phase deltas")
	}
}

// A candidate whose scheduler did more work for identical placements must
// regress only the sched_* counters: the counter-only gate path.
func TestDiffCounterOnlyRegression(t *testing.T) {
	base := buildArchive(t, 7, 5*sim.Second, 32, nil)
	cand := *base
	sched := *base.Sched
	sched.TasksExamined *= 10
	sched.CandidatesExamined *= 10
	cand.Sched = &sched
	r := diffobs.Diff(base, &cand, nil)
	regressed := map[string]bool{}
	for _, m := range r.Regressions() {
		regressed[m.Name] = true
		if !strings.HasPrefix(m.Name, "sched_") {
			t.Errorf("counter-only change regressed non-counter metric %s", m.Name)
		}
	}
	if !regressed["sched_candidates"] || !regressed["sched_tasks"] {
		t.Fatalf("raised counters did not regress; regressed: %v", regressed)
	}
	for _, m := range r.Metrics {
		if m.Name == "makespan_s" && m.Delta != 0 {
			t.Errorf("makespan shifted %.4g under a counter-only change", m.Delta)
		}
	}
}

func TestAlignAcrossCadences(t *testing.T) {
	// Same run captured at 2s/large-ring and 8s/small-ring; alignment
	// must resample to the coarser effective grid and cover the span.
	a := buildArchive(t, 9, 2*sim.Second, 256, nil)
	b := buildArchive(t, 9, 8*sim.Second, 16, nil)
	pts := diffobs.Align(a.Obs, b.Obs)
	if len(pts) == 0 {
		t.Fatal("no aligned points")
	}
	coarse := a.Obs.Cadence * sim.Time(a.Obs.Stride)
	if p := b.Obs.Cadence * sim.Time(b.Obs.Stride); p > coarse {
		coarse = p
	}
	for i, p := range pts {
		if p.Base == nil || p.Cand == nil {
			t.Fatalf("point %d: nil side", i)
		}
		if want := sim.Time(i) * coarse; p.At != want {
			t.Errorf("point %d at %v, want %v", i, p.At, want)
		}
		if p.Base.At > p.At || p.Cand.At > p.At {
			t.Errorf("point %d: snapshot from the future (base %v cand %v at %v)",
				i, p.Base.At, p.Cand.At, p.At)
		}
		// Both sides observe the same run: cumulative counters at the
		// same resampled instant may differ only by snapshot staleness
		// within one grid period, and monotone counters never move
		// backwards relative to the coarser side.
		if p.Base.Completed < p.Cand.Completed && p.Base.At >= p.Cand.At {
			t.Errorf("point %d: later snapshot has fewer completions", i)
		}
	}
	// The diff of the two captures must not flag stream metrics: same
	// run, just different capture shapes.
	r := diffobs.Diff(a, b, nil)
	for _, m := range r.Regressions() {
		t.Errorf("same-run different-capture diff regressed %s (%.4g -> %.4g)", m.Name, m.Base, m.Cand)
	}
}

func TestThresholdClassify(t *testing.T) {
	th := diffobs.DefaultThresholds()
	cases := []struct {
		name, dir  string
		base, cand float64
		want       string
	}{
		{"makespan_s", diffobs.LowerBetter, 100, 100.5, diffobs.ClassNeutral},   // within abs
		{"makespan_s", diffobs.LowerBetter, 100, 104, diffobs.ClassNeutral},     // within rel
		{"makespan_s", diffobs.LowerBetter, 100, 120, diffobs.ClassRegressed},   // beyond both
		{"makespan_s", diffobs.LowerBetter, 100, 80, diffobs.ClassImproved},     // beyond both, down
		{"utilization", diffobs.HigherBetter, 0.5, 0.4, diffobs.ClassRegressed}, // higher-better drop
		{"utilization", diffobs.HigherBetter, 0.5, 0.6, diffobs.ClassImproved},
		{"utilization", diffobs.HigherBetter, 0.5, 0.51, diffobs.ClassNeutral},
		{"failed", diffobs.LowerBetter, 0, 1, diffobs.ClassRegressed}, // zero base: abs only
		{"failed", diffobs.LowerBetter, 0, 0, diffobs.ClassNeutral},
		// Per-category metric falls back to the base-name threshold.
		{"sched_p99[hep-reco]", diffobs.LowerBetter, 10, 10.4, diffobs.ClassNeutral},
		{"sched_p99[hep-reco]", diffobs.LowerBetter, 10, 13, diffobs.ClassRegressed},
	}
	for _, c := range cases {
		if got := th.Classify(c.name, c.dir, c.base, c.cand); got != c.want {
			t.Errorf("Classify(%s, %s, %g, %g) = %s, want %s", c.name, c.dir, c.base, c.cand, got, c.want)
		}
	}
}

func TestUnknownPerturbation(t *testing.T) {
	if _, err := diffobs.Perturbation("nope"); err == nil {
		t.Fatal("unknown perturbation accepted")
	}
	if names := diffobs.PerturbationNames(); len(names) != 1 || names[0] != "workers-halved" {
		t.Fatalf("registered perturbations %v, want [workers-halved]", names)
	}
}
