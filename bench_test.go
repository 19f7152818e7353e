package lfm

import (
	"fmt"
	"testing"

	"lfm/internal/alloc"
	"lfm/internal/cluster"
	"lfm/internal/core"
	"lfm/internal/envpack"
	"lfm/internal/experiments"
	"lfm/internal/monitor"
	"lfm/internal/pypkg"
	"lfm/internal/serde"
	"lfm/internal/sharedfs"
	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// benchExperiment runs one paper experiment per iteration and reports the
// number of result rows so regressions in coverage are visible.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := experiments.Options{Quick: true, Seed: 7}
	driver := experiments.Registry()[id]
	var rows int
	for i := 0; i < b.N; i++ {
		tab, err := driver(opt)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tab.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// One benchmark per table and figure in the paper's evaluation. These are
// the regeneration entry points recorded in DESIGN.md's experiment index.

func BenchmarkFig4ImportScaling(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5DistributionMethods(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkTable1Startup(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkTable2Packaging(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkTable3Sites(b *testing.B)             { benchExperiment(b, "table3") }
func BenchmarkFig6HEP(b *testing.B)                 { benchExperiment(b, "fig6") }
func BenchmarkFig7Drug(b *testing.B)                { benchExperiment(b, "fig7") }
func BenchmarkFig8Genomics(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFig9FuncX(b *testing.B)               { benchExperiment(b, "fig9") }

// BenchmarkStrategies reports the simulated HEP makespan under each
// strategy — the headline several-fold Unmanaged-vs-Auto gap as a metric.
func BenchmarkStrategies(b *testing.B) {
	for _, name := range core.Strategies() {
		name := name
		b.Run(name, func(b *testing.B) {
			var makespan sim.Time
			for i := 0; i < b.N; i++ {
				w := workloads.HEP(sim.NewRNG(7), 100)
				s, err := core.StrategyFor(name, w)
				if err != nil {
					b.Fatal(err)
				}
				out, err := core.Run(w, core.RunConfig{
					SiteName: "ndcrc", Workers: 8, Seed: 7,
					NoBatchLatency: true, Strategy: s,
				})
				if err != nil {
					b.Fatal(err)
				}
				makespan = out.Makespan
			}
			b.ReportMetric(float64(makespan), "sim-makespan-s")
		})
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationCacheAffinity toggles worker-side input caching: without
// it, every task re-transfers its packed environment, multiplying bytes on
// the master link.
func BenchmarkAblationCacheAffinity(b *testing.B) {
	run := func(b *testing.B, cacheable bool) {
		var makespan sim.Time
		var bytesIn int64
		for i := 0; i < b.N; i++ {
			w := workloads.HEP(sim.NewRNG(7), 100)
			w.EnvFile.Cacheable = cacheable
			s, _ := core.StrategyFor("auto", w)
			out, err := core.Run(w, core.RunConfig{
				SiteName: "ndcrc", Workers: 8, Seed: 7,
				NoBatchLatency: true, Strategy: s,
			})
			if err != nil {
				b.Fatal(err)
			}
			makespan = out.Makespan
			bytesIn = out.Stats.BytesIn
		}
		b.ReportMetric(float64(makespan), "sim-makespan-s")
		b.ReportMetric(float64(bytesIn)/1e9, "GB-transferred")
	}
	b.Run("with-cache", func(b *testing.B) { run(b, true) })
	b.Run("no-cache", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationPollInterval varies LFM polling with event tracking off,
// measuring the fraction of short memory spikes missed per interval.
func BenchmarkAblationPollInterval(b *testing.B) {
	spiky := monitor.ProcSpec{Phases: []monitor.Phase{
		{Duration: 0.4, Usage: monitor.Resources{Cores: 1, MemoryMB: 100}},
		{Duration: 0.1, Usage: monitor.Resources{Cores: 1, MemoryMB: 900}},
		{Duration: 0.5, Usage: monitor.Resources{Cores: 1, MemoryMB: 100}},
	}}
	for _, poll := range []sim.Time{0.05, 0.25, 1.0} {
		poll := poll
		b.Run(fmt.Sprintf("poll-%v", poll.Duration()), func(b *testing.B) {
			missed := 0
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(int64(i))
				m := monitor.New(eng, monitor.Config{PollInterval: poll})
				var rep monitor.Report
				// Stagger the start so the spike's phase relative to the
				// poll grid varies across iterations.
				eng.At(sim.Time(i%97)/100, func() {
					m.Run(spiky, monitor.Resources{}, func(r monitor.Report) { rep = r })
				})
				eng.Run()
				if rep.Peak.MemoryMB < 900 {
					missed++
				}
			}
			b.ReportMetric(float64(missed)/float64(b.N)*100, "spikes-missed-%")
		})
	}
}

// BenchmarkAblationEventTracking contrasts polling-only monitoring with
// fork/exit event tracking on a forking task.
func BenchmarkAblationEventTracking(b *testing.B) {
	forky := monitor.ProcSpec{
		Phases: []monitor.Phase{{Duration: 2, Usage: monitor.Resources{Cores: 1, MemoryMB: 100}}},
		Children: []monitor.ChildSpec{
			{StartOffset: 0.3, Spec: monitor.Proc(0.2, monitor.Resources{Cores: 1, MemoryMB: 700})},
		},
	}
	for _, events := range []bool{false, true} {
		events := events
		name := "polling-only"
		if events {
			name = "with-events"
		}
		b.Run(name, func(b *testing.B) {
			caught := 0
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(int64(i))
				m := monitor.New(eng, monitor.Config{PollInterval: 1, TrackProcessEvents: events})
				var rep monitor.Report
				eng.At(0, func() {
					m.Run(forky, monitor.Resources{}, func(r monitor.Report) { rep = r })
				})
				eng.Run()
				if rep.Peak.MemoryMB >= 800 {
					caught++
				}
			}
			b.ReportMetric(float64(caught)/float64(b.N)*100, "forks-caught-%")
		})
	}
}

// BenchmarkAblationMinimalEnv compares shipping the minimal per-function
// closure against the user's whole environment (the conservative fallback
// §V-B rejects).
func BenchmarkAblationMinimalEnv(b *testing.B) {
	ix := pypkg.DefaultCatalog()
	minimal, err := ix.Resolve([]pypkg.Spec{pypkg.Any("python"), pypkg.Any("numpy")})
	if err != nil {
		b.Fatal(err)
	}
	// The "whole environment": everything the user ever installed.
	full, err := ix.Resolve(pypkg.AppSpecs()["drugscreen"])
	if err != nil {
		b.Fatal(err)
	}
	model := envpack.DefaultCostModel()
	run := func(b *testing.B, res *pypkg.Resolution) {
		var staged sim.Time
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine(7)
			fs := sharedfs.New(eng, cluster.Sites()["theta"].FS)
			im := sharedfs.NewImporter(eng, fs, model)
			for n := 0; n < 16; n++ {
				disk := sharedfs.NewLocalDisk(eng, sharedfs.DefaultLocalDisk())
				im.StagePacked(res, disk, func(el sim.Time) {
					if el > staged {
						staged = el
					}
				})
			}
			eng.Run()
		}
		b.ReportMetric(float64(staged), "sim-stage-s")
		b.ReportMetric(float64(model.PackedBytes(res))/1e6, "packed-MB")
	}
	b.Run("minimal-closure", func(b *testing.B) { run(b, minimal) })
	b.Run("whole-user-env", func(b *testing.B) { run(b, full) })
}

// BenchmarkAblationAutoBootstrap sweeps the Auto strategy's bootstrap
// sample requirement: more whole-node bootstraps delay packing.
func BenchmarkAblationAutoBootstrap(b *testing.B) {
	for _, minSamples := range []int{1, 3, 8} {
		minSamples := minSamples
		b.Run(fmt.Sprintf("min-samples-%d", minSamples), func(b *testing.B) {
			var makespan sim.Time
			for i := 0; i < b.N; i++ {
				w := workloads.HEP(sim.NewRNG(7), 100)
				a := alloc.NewAuto()
				a.MinSamples = minSamples
				out, err := core.Run(w, core.RunConfig{
					SiteName: "ndcrc", Workers: 8, Seed: 7,
					NoBatchLatency: true, Strategy: a,
				})
				if err != nil {
					b.Fatal(err)
				}
				makespan = out.Makespan
			}
			b.ReportMetric(float64(makespan), "sim-makespan-s")
		})
	}
}

// BenchmarkAblationPlacement compares worker-choice policies on the HEP
// workload: cache affinity avoids re-transferring environments; the naive
// policies pay for it in bytes and time.
func BenchmarkAblationPlacement(b *testing.B) {
	policies := []wq.Placement{
		wq.PlaceCacheAffinity, wq.PlaceFirstFit, wq.PlaceBestFit, wq.PlaceWorstFit,
	}
	for _, p := range policies {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			var makespan sim.Time
			var bytesIn int64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(7)
				site := cluster.Sites()["ndcrc"]
				site.BatchLatency = 0
				site.Jitter = 0
				cl := cluster.New(eng, site)
				cfg := wq.DefaultConfig()
				cfg.Strategy = alloc.NewAuto()
				cfg.Monitor.Overhead = 0
				cfg.Placement = p
				m := wq.NewMaster(eng, cfg)
				if err := cl.Provision(8, func(n *cluster.Node) { m.AddWorker(n) }); err != nil {
					b.Fatal(err)
				}
				w := workloads.HEP(sim.NewRNG(7), 100)
				eng.At(0, func() {
					for _, t := range w.Tasks {
						m.Submit(t)
					}
				})
				makespan = eng.Run()
				bytesIn = m.Stats().BytesIn
			}
			b.ReportMetric(float64(makespan), "sim-makespan-s")
			b.ReportMetric(float64(bytesIn)/1e9, "GB-transferred")
		})
	}
}

// BenchmarkSerde measures the serialization layer's frame round-trip.
func BenchmarkSerde(b *testing.B) {
	payload := []any{map[string]any{"xs": make([]float64, 1000), "label": "batch"}}
	for i := 0; i < b.N; i++ {
		data, err := serde.Encode(serde.KindArgs, payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := serde.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWQScheduler measures raw scheduler throughput: tasks placed and
// completed per wall-clock second of simulation on a big pool.
func BenchmarkWQScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(7)
		site := cluster.Sites()["theta"]
		site.BatchLatency = 0
		site.Jitter = 0
		cl := cluster.New(eng, site)
		cfg := wq.DefaultConfig()
		cfg.Strategy = &alloc.Unmanaged{}
		m := wq.NewMaster(eng, cfg)
		if err := cl.Provision(64, func(n *cluster.Node) { m.AddWorker(n) }); err != nil {
			b.Fatal(err)
		}
		eng.At(0, func() {
			for t := 0; t < 2000; t++ {
				m.Submit(&wq.Task{
					ID:       t,
					Category: "bench",
					Spec:     monitor.Proc(10, monitor.Resources{Cores: 1, MemoryMB: 64}),
				})
			}
		})
		eng.Run()
		if m.Stats().Completed != 2000 {
			b.Fatalf("completed %d", m.Stats().Completed)
		}
	}
}

// BenchmarkEngineQueue measures the calendar event queue on the raw
// dispatch loop: a large churning population of pending events (random
// delays, a slice of same-timestamp bursts, occasional cancels) with no
// scheduler on top, isolating queue cost per event. The standing population
// matches the scale sweep's regime — tens of thousands of pending events.
func BenchmarkEngineQueue(b *testing.B) {
	const events = 200000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(7)
		rng := eng.RNG()
		n := 0
		var churn func()
		churn = func() {
			n++
			if n >= events {
				return
			}
			switch n % 8 {
			case 0: // same-timestamp burst
				for j := 0; j < 4; j++ {
					eng.Defer(func() {})
				}
				eng.After(sim.Time(rng.Float64()), churn)
			case 1: // schedule-then-cancel
				ev := eng.After(sim.Time(rng.Float64()*10), func() {})
				eng.After(sim.Time(rng.Float64()), churn)
				eng.Cancel(ev)
			default:
				eng.After(sim.Time(rng.Float64()*2), churn)
			}
		}
		// A standing population so the queue is never near-empty: 32k
		// long-lived events plus 64 churn drivers.
		for j := 0; j < 32768; j++ {
			eng.After(sim.Time(rng.Float64()*1000+10), func() {})
		}
		for j := 0; j < 64; j++ {
			eng.After(sim.Time(rng.Float64()*5), churn)
		}
		eng.Run()
		if n < events {
			b.Fatalf("dispatched %d events, want >= %d", n, events)
		}
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkFairShare exercises the shared-link transfer model: a standing
// set of concurrent flows arriving and completing, the regime where the
// old per-event rate rescan was O(flows) and virtual time is O(log flows).
func BenchmarkFairShare(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(7)
		fs := sim.NewFairShare(eng, 100)
		rng := eng.RNG()
		const transfers = 20000
		done := 0
		var launch func()
		launch = func() {
			fs.Transfer(rng.Float64()*50+1, func() {
				done++
				if done+64 <= transfers {
					launch()
				}
			})
		}
		eng.At(0, func() {
			for j := 0; j < 64; j++ {
				launch()
			}
		})
		eng.Run()
		if fs.Completed != uint64(transfers) {
			b.Fatalf("completed %d transfers, want %d", fs.Completed, transfers)
		}
	}
}

// BenchmarkMatcher runs the indexed matcher on a backlog deep enough that
// scheduling cost dominates, reporting candidate fit-tests per scheduling
// round next to what the linear scan would have examined in the same rounds.
func BenchmarkMatcher(b *testing.B) {
	var perRound, scanPerRound float64
	for i := 0; i < b.N; i++ {
		w := workloads.Scale(sim.NewRNG(7), 4000, 8)
		out, err := core.Run(w, core.RunConfig{
			SiteName: "theta", Workers: 64, Seed: 7, NoBatchLatency: true,
			WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
			Strategy: &alloc.Guess{Fixed: w.Guess},
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Stats.Completed != 4000 {
			b.Fatalf("completed %d", out.Stats.Completed)
		}
		perRound = float64(out.Sched.CandidatesExamined) / float64(out.Sched.Passes)
		scanPerRound = float64(out.Sched.ScanCandidatesExamined) / float64(out.Sched.Passes)
	}
	b.ReportMetric(perRound, "candidates/round")
	b.ReportMetric(scanPerRound, "scan-candidates/round")
}

// BenchmarkDependencyAnalysis measures static analysis throughput on a
// realistic Parsl script.
func BenchmarkDependencyAnalysis(b *testing.B) {
	src := `
import parsl
from parsl import python_app

@python_app
def analyze(path):
    import numpy as np
    import scipy.linalg
    from coffea import hist
    import uproot
    return np.sum(uproot.open(path))
`
	ix := pypkg.DefaultCatalog()
	res, _ := ix.Resolve(pypkg.AppSpecs()["hep"])
	env := pypkg.NewEnvironment("user")
	env.Install(res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeFunction(src, "analyze", ix, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolver measures dependency resolution of the largest closure.
func BenchmarkResolver(b *testing.B) {
	ix := pypkg.DefaultCatalog()
	specs := pypkg.AppSpecs()["drugscreen"]
	for i := 0; i < b.N; i++ {
		if _, err := ix.Resolve(specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPack measures real tarball packing of the numpy closure.
func BenchmarkPack(b *testing.B) {
	ix := pypkg.DefaultCatalog()
	res, err := ix.Resolve([]pypkg.Spec{pypkg.Any("numpy")})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack("bench", res); err != nil {
			b.Fatal(err)
		}
	}
}
