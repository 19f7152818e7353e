package core

import (
	"fmt"

	"lfm/internal/chaos"
	"lfm/internal/tseries"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// ScenarioConfig is the serializable slice of RunConfig: every knob that
// shapes a run's behaviour (site, pool shape, strategy, seeds, resilience,
// fault schedule, telemetry) and none of the attachments that merely observe
// it (trace stores, metric registries, snapshot buses) or that hold live
// functions (serving feeds and arrival processes). It is the contract the
// scenario harness persists in trace headers: Materialize on the same
// ScenarioConfig always yields a behaviourally identical RunConfig, which is
// half of the replay determinism argument (DESIGN.md §14) — the other half
// is the recorded task and arrival stream.
type ScenarioConfig struct {
	// SiteName keys into cluster.Sites(); empty means the default site.
	SiteName string `json:"site,omitempty"`
	// Workers is the number of provisioned nodes; WorkerCores,
	// WorkerMemoryMB, and WorkerDiskMB optionally shrink each node's shape.
	Workers        int     `json:"workers"`
	WorkerCores    int     `json:"worker_cores,omitempty"`
	WorkerMemoryMB float64 `json:"worker_mem_mb,omitempty"`
	WorkerDiskMB   float64 `json:"worker_disk_mb,omitempty"`
	// Strategy is the allocation strategy name for StrategyFor; empty means
	// "auto".
	Strategy string `json:"strategy,omitempty"`
	// Seed drives the simulation; ChaosSeed, when nonzero, seeds fault
	// injection independently.
	Seed      int64 `json:"seed"`
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// NoBatchLatency provisions workers instantly; Autoscale grows the pool
	// on demand instead of provisioning it up front.
	NoBatchLatency bool `json:"no_batch_latency,omitempty"`
	Autoscale      bool `json:"autoscale,omitempty"`
	// Resilience configures heartbeats, speculation, quarantine, and
	// staging retries; the zero value leaves the master unhardened.
	Resilience wq.ResilienceConfig `json:"resilience"`
	// Faults is the declarative chaos schedule, nil for a healthy run.
	Faults *chaos.Schedule `json:"faults,omitempty"`
	// Telemetry, when non-nil, records resource time series. It changes no
	// decision of the run; it is part of the scenario config because the
	// run's summary carries what it records (the waste block).
	Telemetry *tseries.Config `json:"telemetry,omitempty"`
}

// Materialize resolves the serializable config into a runnable RunConfig
// for the workload: the strategy name becomes a fresh strategy instance and
// every scalar knob is copied over. Attach observation-only extras (traces,
// obs, metrics) and the serving frontend on the returned config before Run.
func (c ScenarioConfig) Materialize(w *workloads.Workload) (RunConfig, error) {
	name := c.Strategy
	if name == "" {
		name = "auto"
	}
	strategy, err := StrategyFor(name, w)
	if err != nil {
		return RunConfig{}, fmt.Errorf("core: scenario config: %w", err)
	}
	return RunConfig{
		SiteName:       c.SiteName,
		Workers:        c.Workers,
		WorkerCores:    c.WorkerCores,
		WorkerMemoryMB: c.WorkerMemoryMB,
		WorkerDiskMB:   c.WorkerDiskMB,
		Strategy:       strategy,
		Seed:           c.Seed,
		ChaosSeed:      c.ChaosSeed,
		NoBatchLatency: c.NoBatchLatency,
		Autoscale:      c.Autoscale,
		Resilience:     c.Resilience,
		Faults:         c.Faults,
		Telemetry:      c.Telemetry,
	}, nil
}

// RunScenario materializes the config and executes the workload. The
// customize hook, when non-nil, runs on the materialized RunConfig before
// execution — the scenario harness uses it to attach serving frontends,
// traces, and the observability plane without those living in the
// serializable config.
func (c ScenarioConfig) RunScenario(w *workloads.Workload, customize func(*RunConfig)) (*Outcome, error) {
	cfg, err := c.Materialize(w)
	if err != nil {
		return nil, err
	}
	if customize != nil {
		customize(&cfg)
	}
	return Run(w, cfg)
}
