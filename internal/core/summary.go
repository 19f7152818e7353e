package core

import (
	"encoding/json"
	"io"

	"lfm/internal/chaos"
	"lfm/internal/obs"
	"lfm/internal/serve"
	"lfm/internal/sim"
	"lfm/internal/tseries"
	"lfm/internal/wq"
)

// SummaryVersion is the unified summary document's schema version. Note
// that bumping it shifts every scenario outcome digest (the digest covers
// the serialized summary), so recorded traces and committed baselines must
// be regenerated alongside.
const SummaryVersion = 1

// RunSummary is the unified single-document view of one run: the outcome's
// headline numbers plus the pieces the Outcome deliberately excludes from
// its own JSON (scheduler work counters, telemetry waste totals, latency
// quantiles, health findings), each present only when its subsystem was
// enabled. WriteSummaryJSON renders it; lfmbench -summary-out exports it.
type RunSummary struct {
	// SchemaVersion is SummaryVersion at write time; consumers reject
	// newer documents instead of misparsing them.
	SchemaVersion int      `json:"schema_version"`
	Strategy      string   `json:"strategy"`
	Workload      string   `json:"workload"`
	Workers       int      `json:"workers"`
	Makespan      sim.Time `json:"makespan"`
	TaskCount     int      `json:"task_count"`
	Stats         wq.Stats `json:"stats"`
	// Utilization is allocated/provisioned core-time; EffectiveUtilization
	// is measured-used/provisioned.
	Utilization          float64 `json:"utilization"`
	EffectiveUtilization float64 `json:"effective_utilization"`
	RetryFraction        float64 `json:"retry_fraction,omitempty"`
	ProvisionFailures    int     `json:"provision_failures,omitempty"`
	ProvisionError       string  `json:"provision_error,omitempty"`
	// Sched is the matching loop's work counters (Outcome.Sched) with
	// ElapsedNanos zeroed: wall-clock timing is hardware noise, and the
	// summary stays byte-deterministic for a seed without it.
	Sched *wq.SchedStats `json:"sched,omitempty"`
	// Waste is the telemetry layer's allocated-vs-used roll-up.
	Waste *tseries.UtilizationSummary `json:"waste,omitempty"`
	// Chaos is the fault-injection report of a faulted run.
	Chaos *chaos.Report `json:"chaos,omitempty"`
	// Serving is the open-loop frontend's accounting: offered vs
	// accepted/rejected/shed/throttled, per-tenant breakdowns, and the
	// arrival→completion latency quantiles of an open-loop run.
	Serving *serve.Report `json:"serving,omitempty"`
	// Obs summarizes the observability plane's final snapshot.
	Obs *ObsSummary `json:"obs,omitempty"`
	// Health is the rule-driven health report (Outcome.Health).
	Health *obs.Health `json:"health,omitempty"`
}

// ObsSummary is the summary's slice of the observability plane: how much of
// the timeline was retained and the run's final cumulative latencies.
type ObsSummary struct {
	Cadence    sim.Time `json:"cadence"`
	Boundaries int      `json:"boundaries"`
	Retained   int      `json:"retained"`
	Stride     int      `json:"stride"`
	// SchedLatency is submit→first-placement, E2ELatency
	// submit→successful-completion, cumulative over the whole run.
	SchedLatency obs.LatencyQuantiles  `json:"sched_latency"`
	E2ELatency   obs.LatencyQuantiles  `json:"e2e_latency"`
	Categories   []obs.CategoryLatency `json:"categories,omitempty"`
}

// Summary assembles the run's unified summary document.
func (o *Outcome) Summary() *RunSummary {
	s := &RunSummary{
		SchemaVersion: SummaryVersion,
		Strategy:      o.Strategy, Workload: o.Workload, Workers: o.Workers,
		Makespan: o.Makespan, TaskCount: o.TaskCount, Stats: o.Stats,
		Utilization:          o.Utilization,
		EffectiveUtilization: o.EffectiveUtilization,
		RetryFraction:        o.RetryFraction,
		ProvisionFailures:    o.ProvisionFailures,
		ProvisionError:       o.ProvisionError,
		Chaos:                o.Chaos,
		Serving:              o.Serving,
		Health:               o.Health,
	}
	if o.Sched != nil {
		sched := *o.Sched
		sched.ElapsedNanos = 0
		s.Sched = &sched
	}
	if o.Telemetry != nil {
		w := o.Telemetry.Util
		s.Waste = &w
	}
	if o.Obs != nil {
		s.Obs = &ObsSummary{
			Cadence:    o.Obs.Cadence,
			Boundaries: o.Obs.Boundaries,
			Retained:   len(o.Obs.Snapshots),
			Stride:     o.Obs.Stride,
		}
		if fin := o.Obs.Final; fin != nil {
			s.Obs.SchedLatency = fin.SchedLatency
			s.Obs.E2ELatency = fin.E2ELatency
			s.Obs.Categories = fin.Categories
		}
	}
	return s
}

// WriteSummaryJSON writes the unified summary as indented JSON. Output is
// deterministic for a given seed.
func (o *Outcome) WriteSummaryJSON(w io.Writer) error {
	b, err := json.MarshalIndent(o.Summary(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
