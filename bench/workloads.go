package main

import (
	"fmt"

	"lfm/internal/chaos"
	"lfm/internal/cluster"
	"lfm/internal/core"
	"lfm/internal/metrics"
	"lfm/internal/obs"
	"lfm/internal/serve"
	"lfm/internal/sim"
	"lfm/internal/tseries"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// spec is one generated run: the workload's tasks and the configuration
// core.Run receives.
type spec struct {
	w   *workloads.Workload
	cfg core.RunConfig
}

// workload is one benchmark workload. build generates its inputs from the
// seed; size scales every task and worker count (1 is the benchmark size,
// the smoke test uses 0.01).
type workload struct {
	name  string
	why   string
	build func(seed int64, size float64) (*spec, error)
}

// The four workloads stress different layers: each optimisation should
// move one of them and leave another flat. README.md gives the expected
// layer shares.
var allWorkloads = []workload{
	{
		name: "scale-batch",
		why:  "deep static backlog on a big pool: scheduler index upkeep, matching and the engine's bulk dispatch dominate; Guess makes allocation free",
		build: func(seed int64, size float64) (*spec, error) {
			return scaleBatch(seed, scaled(100000, size), scaled(5000, size))
		},
	},
	{
		name: "hep-auto",
		why:  "the paper's HEP DAG under Auto with a queue deeper than the pool: allocation labelling and the garbage it makes dominate",
		build: func(seed int64, size float64) (*spec, error) {
			w := workloads.HEP(sim.NewRNG(seed), scaled(600, size))
			strategy, err := core.StrategyFor("auto", w)
			if err != nil {
				return nil, err
			}
			return &spec{w: w, cfg: core.RunConfig{
				SiteName: "ndcrc", Workers: scaled(20, size),
				WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
				Strategy: strategy, Seed: seed, NoBatchLatency: true,
			}}, nil
		},
	},
	{
		name: "sinks-full",
		why:  "the scale-batch model with every observability sink attached: trace, metrics, tseries and obs take a large share",
		build: func(seed int64, size float64) (*spec, error) {
			sp, err := scaleBatch(seed, scaled(30000, size), scaled(1500, size))
			if err != nil {
				return nil, err
			}
			sp.cfg.Trace = &wq.Trace{}
			sp.cfg.Metrics = metrics.NewRegistry()
			sp.cfg.MetricsResolution = sim.Second
			sp.cfg.Telemetry = tseries.DefaultConfig()
			sp.cfg.Obs = &obs.Config{}
			return sp, nil
		},
	},
	{
		name: "storm-serve",
		why:  "open-loop overload with chaos and full resilience: shallow bounded queue, worker churn, timer set-and-cancel and admission on every offer",
		build: func(seed int64, size float64) (*spec, error) {
			return stormServe(seed, size)
		},
	},
}

// scaled returns n scaled by size, at least 1.
func scaled(n int, size float64) int {
	return max(1, int(float64(n)*size+0.5))
}

// synthetic is an ND-CRC-like site with the given node count.
func synthetic(nodes int) *cluster.Site {
	site := cluster.Sites()["ndcrc"]
	site.Name = fmt.Sprintf("synthetic-%d", nodes)
	site.Nodes = nodes
	return &site
}

// scaleBatch is the synthetic scale model: 1-core tasks over 8 categories,
// all submitted at t=0 to 4-core / 4 GB / 8 GB workers, labelled by Guess.
func scaleBatch(seed int64, tasks, workers int) (*spec, error) {
	w := workloads.Scale(sim.NewRNG(seed), tasks, 8)
	strategy, err := core.StrategyFor("guess", w)
	if err != nil {
		return nil, err
	}
	return &spec{w: w, cfg: core.RunConfig{
		Site: synthetic(workers), Workers: workers,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: strategy, Seed: seed, NoBatchLatency: true,
	}}, nil
}

// stormServe offers 150 tasks/s, about 1.25x the pool's nominal rate (600
// workers x 4 one-core slots / 20 s mean task), for 1800 simulated seconds
// under the overload-storm chaos profile and the full resilience stack.
func stormServe(seed int64, size float64) (*spec, error) {
	const window = 1800 * sim.Second
	workers := scaled(600, size)
	// The profile's two tenant stampedes multiply one tenant's rate by 6
	// and then 10, so the feed runs dry partway through the window; the
	// run then drains the work it admitted.
	w := workloads.Scale(sim.NewRNG(seed), scaled(280000, size), 8)
	strategy, err := core.StrategyFor("guess", w)
	if err != nil {
		return nil, err
	}
	faults, err := chaos.Profile("overload-storm", window)
	if err != nil {
		return nil, err
	}
	maxInflight := scaled(7800, size)
	tenant := func(name string, rate, weight float64, priority int) serve.TenantConfig {
		return serve.TenantConfig{
			Name: name, Weight: weight, Priority: priority,
			Arrival: &workloads.Poisson{Rate: rate * size},
		}
	}
	return &spec{w: w, cfg: core.RunConfig{
		// Headroom in the site lets chaos replace crashed and churned
		// workers.
		Site: synthetic(2 * workers), Workers: workers,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: strategy, Seed: seed, NoBatchLatency: true,
		// A fixed chaos seed replays the same disaster over every input
		// seed. Drawn from the input seed, the stampedes hit a different
		// tenant per seed and tasks_per_s moved by 40% from seed to seed.
		Faults: faults, ChaosSeed: 1,
		Resilience: wq.ResilienceConfig{
			HeartbeatInterval:     10 * sim.Second,
			SpeculationMultiplier: 2,
			QuarantineThreshold:   3,
			StagingRetries:        3,
		},
		Serving: &serve.Config{
			Window:        window,
			MaxInflight:   maxInflight,
			ShedWatermark: maxInflight * 3 / 4,
			Tenants: []serve.TenantConfig{
				tenant("api", 75, 2, 1),
				tenant("batch", 47, 1, 0),
				tenant("adhoc", 28, 1, 0),
			},
		},
	}}, nil
}
