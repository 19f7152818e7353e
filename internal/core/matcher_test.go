package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// matcherRun executes one full simulation under the given matcher and
// returns the outcome JSON, the trace JSON, and the scheduling counters.
func matcherRun(t *testing.T, mt wq.Matcher, wl func() *workloads.Workload,
	strategy string, profile string) ([]byte, []byte, wq.SchedStats) {
	t.Helper()
	w := wl()
	s, err := StrategyFor(strategy, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		SiteName: "ndcrc", Workers: 8, Seed: 31, NoBatchLatency: true,
		Strategy: s, matcher: mt,
	}
	if profile != "" {
		sched, err := chaos.Profile(profile, 600)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = sched
		cfg.ChaosSeed = 11
		cfg.Resilience = fullResilience()
	}
	tr := &wq.Trace{}
	cfg.Trace = tr
	out, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Chaos != nil && len(out.Chaos.Violations) != 0 {
		t.Fatalf("invariant violations under %v matcher: %v", mt, out.Chaos.Violations)
	}
	ob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := tr.Store().WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	return ob, tb.Bytes(), *out.Sched
}

// TestMatcherDifferentialEndToEnd proves the indexed matcher reproduces the
// linear scan byte-for-byte across full application workloads, with and
// without fault injection, and that the indexed run's counterfactual scan
// cost equals the scan run's measured cost.
func TestMatcherDifferentialEndToEnd(t *testing.T) {
	cases := []struct {
		name     string
		wl       func() *workloads.Workload
		strategy string
		profile  string
	}{
		{"hep-auto", func() *workloads.Workload { return workloads.HEP(sim.NewRNG(31), 120) }, "auto", ""},
		{"drugscreen-oracle", func() *workloads.Workload { return workloads.DrugScreen(sim.NewRNG(31), 10) }, "oracle", ""},
		{"genomics-guess", func() *workloads.Workload { return workloads.Genomics(sim.NewRNG(31), 8) }, "guess", ""},
		{"hep-storm", func() *workloads.Workload { return workloads.HEP(sim.NewRNG(31), 80) }, "auto", "storm"},
		{"hep-stragglers", func() *workloads.Workload { return workloads.HEP(sim.NewRNG(31), 80) }, "auto", "stragglers"},
		{"hep-flaky-staging", func() *workloads.Workload { return workloads.HEP(sim.NewRNG(31), 80) }, "auto", "flaky-staging"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oIdx, tIdx, sIdx := matcherRun(t, wq.MatcherIndexed, tc.wl, tc.strategy, tc.profile)
			oScan, tScan, sScan := matcherRun(t, wq.MatcherScan, tc.wl, tc.strategy, tc.profile)
			if !bytes.Equal(oIdx, oScan) {
				t.Fatalf("outcomes diverge:\n%s\n%s", oIdx, oScan)
			}
			if !bytes.Equal(tIdx, tScan) {
				t.Fatal("traces diverge")
			}
			if sIdx.Passes != sScan.Passes {
				t.Fatalf("rounds diverge: indexed %d, scan %d", sIdx.Passes, sScan.Passes)
			}
			if sIdx.ScanTasksExamined != sScan.TasksExamined ||
				sIdx.ScanCandidatesExamined != sScan.CandidatesExamined {
				t.Fatalf("counterfactual scan cost %d/%d != measured %d/%d",
					sIdx.ScanTasksExamined, sIdx.ScanCandidatesExamined,
					sScan.TasksExamined, sScan.CandidatesExamined)
			}
		})
	}
}
