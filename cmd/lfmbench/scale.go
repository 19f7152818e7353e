package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"lfm"
)

// scalePoint is one sweep configuration.
type scalePoint struct {
	Tasks   int `json:"tasks"`
	Workers int `json:"workers"`
}

// matcherCost reports one matcher's scheduling work at a sweep point.
type matcherCost struct {
	Rounds             int64   `json:"rounds"`
	TasksExamined      int64   `json:"tasks_examined"`
	CandidatesExamined int64   `json:"candidates_examined"`
	CandidatesPerRound float64 `json:"candidates_per_round"`
	BlockedWakes       int64   `json:"blocked_wakes,omitempty"`
	SchedMillis        float64 `json:"sched_ms"`
	WallMillis         float64 `json:"wall_ms"`
}

// scaleResult is one sweep point's measurements.
type scaleResult struct {
	scalePoint
	Categories int     `json:"categories"`
	Makespan   float64 `json:"sim_makespan_s"`
	Completed  int     `json:"completed"`

	Indexed matcherCost `json:"indexed"`
	// ScanEquivalent is the indexed run's counterfactual: what the linear
	// scan would have examined over the same rounds (no timing, it did not
	// run).
	ScanEquivalent matcherCost `json:"scan_equivalent"`

	// ReductionCandidatesPerRound is scan-equivalent candidates per round
	// divided by indexed candidates per round.
	ReductionCandidatesPerRound float64 `json:"reduction_candidates_per_round"`

	// Obs is the measured cost and latency yield of re-running the point
	// with the streaming observability plane attached; present on points
	// small enough to afford the re-run.
	Obs *obsCost `json:"obs,omitempty"`
}

// obsCost reports the observability re-run at a sweep point: the
// scheduling-latency (submit→placement) quantiles the snapshot bus
// recorded, the re-run's wall time, and its overhead against the obs-off
// run. IdenticalOutput confirms the obs run's outcome JSON was
// byte-identical to the base run's (behavior neutrality at scale).
type obsCost struct {
	SchedLatencyP50  float64 `json:"sched_latency_p50_s"`
	SchedLatencyP99  float64 `json:"sched_latency_p99_s"`
	SchedLatencyP999 float64 `json:"sched_latency_p999_s"`
	E2EP50           float64 `json:"e2e_latency_p50_s"`
	E2EP99           float64 `json:"e2e_latency_p99_s"`
	Boundaries       int     `json:"boundaries"`
	WallMillis       float64 `json:"wall_ms"`
	// OverheadFraction is (obs wall − base wall)/base wall for the same
	// point and seed; the plane targets < 0.05.
	OverheadFraction float64 `json:"overhead_fraction"`
	IdenticalOutput  bool    `json:"identical_output"`
}

// scaleReport is the BENCH_scheduler.json document.
type scaleReport struct {
	SchemaVersion int           `json:"schema_version"`
	GeneratedBy   string        `json:"generated_by"`
	Quick         bool          `json:"quick"`
	Seed          int64         `json:"seed"`
	Points        []scaleResult `json:"points"`
}

const scaleCategories = 8

// scaleRun executes one sweep point and returns the outcome and the process
// wall time. A non-nil ocfg attaches the observability plane to the run.
func scaleRun(seed int64, p scalePoint, ocfg *lfm.ObsConfig) (*lfm.Outcome, time.Duration, error) {
	w := lfm.ScaleWorkload(seed, p.Tasks, scaleCategories)
	// The fixed "guess" label keeps Strategy.Next O(1) so the measurement
	// isolates matcher cost; "auto" recomputes labels from the full
	// observation history on every query, which at this scale dominates the
	// runtime.
	strategy, err := lfm.StrategyFor("guess", w)
	if err != nil {
		return nil, 0, err
	}
	// A synthetic pool: one 4-core node per worker so the backlog stays
	// several waves deep and every scheduling round has real work.
	site := lfm.Sites()["ndcrc"]
	site.Name = fmt.Sprintf("synthetic-%d", p.Workers)
	site.Nodes = p.Workers
	site.BatchLatency = 0
	site.Jitter = 0
	// Collect the previous run's garbage outside the timed window: the
	// sweep re-runs points back to back in one process, and inherited GC
	// debt otherwise skews whichever run happens to pay it.
	runtime.GC()
	start := time.Now()
	out, err := lfm.RunWorkload(w, lfm.RunConfig{
		Site: &site, Workers: p.Workers,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: strategy, Seed: seed, NoBatchLatency: true,
		Obs: ocfg,
	})
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	return out, wall, nil
}

func cost(rounds, tasks, candidates int64, schedNanos int64, wall time.Duration) matcherCost {
	c := matcherCost{
		Rounds:             rounds,
		TasksExamined:      tasks,
		CandidatesExamined: candidates,
		SchedMillis:        float64(schedNanos) / 1e6,
		WallMillis:         float64(wall.Nanoseconds()) / 1e6,
	}
	if rounds > 0 {
		c.CandidatesPerRound = float64(candidates) / float64(rounds)
	}
	return c
}

// parsePoints parses a "TASKSxWORKERS,..." override list.
func parsePoints(spec string) ([]scalePoint, error) {
	var pts []scalePoint
	for _, part := range strings.Split(spec, ",") {
		var p scalePoint
		if _, err := fmt.Sscanf(part, "%dx%d", &p.Tasks, &p.Workers); err != nil {
			return nil, fmt.Errorf("bad -scale-points entry %q (want TASKSxWORKERS)", part)
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// runScale sweeps the scheduler over growing backlogs and pools, measures
// the indexed matcher against the linear scan's counterfactual cost, and
// writes the JSON report.
func runScale(seed int64, quick bool, outPath, pointSpec string) error {
	points := []scalePoint{{2000, 128}, {10000, 512}, {100000, 5000}, {1000000, 50000}}
	// Points up to this size also re-run with the observability plane
	// attached, to record scheduling-latency quantiles and measure the
	// plane's wall-clock overhead against the obs-off base run.
	obsDualMax := 100000
	if quick {
		points = []scalePoint{{1000, 64}, {5000, 512}, {20000, 1000}}
		obsDualMax = 20000
	}
	if pointSpec != "" {
		var err error
		if points, err = parsePoints(pointSpec); err != nil {
			return err
		}
	}
	rep := scaleReport{SchemaVersion: 1, GeneratedBy: "lfmbench -scale", Quick: quick, Seed: seed}
	for _, p := range points {
		out, wall, err := scaleRun(seed, p, nil)
		if err != nil {
			return err
		}
		s := out.Sched
		res := scaleResult{
			scalePoint: p,
			Categories: scaleCategories,
			Makespan:   float64(out.Makespan),
			Completed:  out.Stats.Completed,
			Indexed:    cost(s.Passes, s.TasksExamined, s.CandidatesExamined, s.ElapsedNanos, wall),
			ScanEquivalent: cost(s.Passes, s.ScanTasksExamined, s.ScanCandidatesExamined,
				0, 0),
		}
		res.Indexed.BlockedWakes = s.BlockedWakes
		if res.Indexed.CandidatesPerRound > 0 {
			res.ReductionCandidatesPerRound =
				res.ScanEquivalent.CandidatesPerRound / res.Indexed.CandidatesPerRound
		}
		msg := io.Writer(os.Stdout)
		if outPath == "-" {
			msg = os.Stderr
		}
		if p.Tasks <= obsDualMax {
			// Wall-clock noise (GC pauses, machine jitter across the
			// re-runs in this process) easily exceeds the obs plane's real
			// cost, so the overhead baseline is NOT the first run above:
			// base and obs runs are re-measured as interleaved pairs —
			// order alternating between iterations so slot position
			// cancels — and the per-arm minima compared. Four pairs keep
			// the minima within ~1% of the true walls on a noisy host.
			var outObs *lfm.Outcome
			var wallBase, wallObs time.Duration
			for i := 0; i < 4; i++ {
				arm := func(obs bool) (time.Duration, error) {
					var oc *lfm.ObsConfig
					if obs {
						oc = &lfm.ObsConfig{}
					}
					o, w, err := scaleRun(seed, p, oc)
					if obs && err == nil {
						outObs = o
					}
					return w, err
				}
				first, second := false, true
				if i%2 == 1 {
					first, second = true, false
				}
				w1, err := arm(first)
				if err != nil {
					return err
				}
				w2, err := arm(second)
				if err != nil {
					return err
				}
				wb, wo := w1, w2
				if first {
					wb, wo = w2, w1
				}
				if i == 0 || wb < wallBase {
					wallBase = wb
				}
				if i == 0 || wo < wallObs {
					wallObs = wo
				}
			}
			fin := outObs.Obs.Final
			oc := obsCost{
				SchedLatencyP50:  fin.SchedLatency.P50,
				SchedLatencyP99:  fin.SchedLatency.P99,
				SchedLatencyP999: fin.SchedLatency.P999,
				E2EP50:           fin.E2ELatency.P50,
				E2EP99:           fin.E2ELatency.P99,
				Boundaries:       outObs.Obs.Boundaries,
				WallMillis:       float64(wallObs.Nanoseconds()) / 1e6,
				OverheadFraction: (wallObs.Seconds() - wallBase.Seconds()) / wallBase.Seconds(),
			}
			oi, err := json.Marshal(out)
			if err != nil {
				return err
			}
			oo, err := json.Marshal(outObs)
			if err != nil {
				return err
			}
			oc.IdenticalOutput = bytes.Equal(oi, oo)
			res.Obs = &oc
			if !oc.IdenticalOutput {
				return fmt.Errorf("scale point %dx%d: obs-on and obs-off outcomes diverge", p.Tasks, p.Workers)
			}
			fmt.Fprintf(msg, "obs    %6d tasks x %4d workers: sched p50/p99/p999 %.3g/%.3g/%.3gs, wall %.1fs (%+.1f%% vs base), identical output\n",
				p.Tasks, p.Workers, oc.SchedLatencyP50, oc.SchedLatencyP99, oc.SchedLatencyP999,
				wallObs.Seconds(), 100*oc.OverheadFraction)
		}
		rep.Points = append(rep.Points, res)
		fmt.Fprintf(msg, "scale %6d tasks x %4d workers: %d rounds, %.0f candidates/round indexed vs %.0f scan-equivalent (%.0fx), sched %.0fms, run %.1fs\n",
			p.Tasks, p.Workers, res.Indexed.Rounds, res.Indexed.CandidatesPerRound,
			res.ScanEquivalent.CandidatesPerRound, res.ReductionCandidatesPerRound,
			res.Indexed.SchedMillis, wall.Seconds())
	}
	return writeTo(outPath, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(&rep)
	})
}
