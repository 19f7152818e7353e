// Package lfm is a Go implementation of Lightweight Function Monitors
// (LFMs) for fine-grained management of function-level workloads, after
// Shaffer et al., "Lightweight Function Monitors for Fine-Grained Management
// in Large Scale Python Applications" (IPDPS 2021).
//
// The library makes individual function invocations — not processes,
// containers, or batch jobs — the unit of resource management:
//
//   - Static dependency analysis of real Python source (AnalyzeFunction)
//     computes the minimal package set a function needs.
//   - Environment packaging (ResolveEnv, Pack) captures that set as a
//     relocatable conda-pack-style tarball for distribution to workers.
//   - A lightweight function monitor measures each invocation's cores,
//     memory, and disk by polling plus process-tree events, and kills
//     invocations that exceed their limits (RunMonitored for real Unix
//     processes; the simulation packages for modeled ones).
//   - Automatic resource labeling (NewAutoStrategy) converges on right-sized
//     allocations so many invocations pack onto each node.
//   - A Parsl-style dataflow layer (NewDFK) runs Go functions as apps with
//     futures and dependency tracking.
//   - A deterministic cluster simulator reproduces every table and figure of
//     the paper's evaluation (RunWorkload, Experiments).
//
// See the examples directory for runnable end-to-end scenarios and
// DESIGN.md for the system inventory.
package lfm

import (
	"context"
	"io"
	"os/exec"
	"time"

	"lfm/internal/alloc"
	"lfm/internal/chaos"
	"lfm/internal/cluster"
	"lfm/internal/core"
	"lfm/internal/deps"
	"lfm/internal/diffobs"
	"lfm/internal/envpack"
	"lfm/internal/experiments"
	"lfm/internal/metrics"
	"lfm/internal/monitor"
	"lfm/internal/obs"
	"lfm/internal/parsl"
	"lfm/internal/procmon"
	"lfm/internal/pyast"
	"lfm/internal/pypkg"
	"lfm/internal/runarchive"
	"lfm/internal/scenario"
	"lfm/internal/serve"
	"lfm/internal/sim"
	"lfm/internal/trace"
	"lfm/internal/tseries"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// ---- Resource model ----

// Time is simulated time in seconds.
type Time = sim.Time

// Simulated-time unit constants.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Resources is a cores/memory/disk resource vector.
type Resources = monitor.Resources

// ---- Dependency analysis (paper §V-B) ----

// DependencyReport lists a code fragment's imports, their classification,
// and the minimal pinned distribution set.
type DependencyReport = deps.Report

// PackageIndex is a Python package repository (the PyPI/Conda analogue).
type PackageIndex = pypkg.Index

// PythonEnv is an installed package set (the user's Conda environment).
type PythonEnv = pypkg.Environment

// Resolution is a resolved, installable dependency closure.
type Resolution = pypkg.Resolution

// DefaultCatalog returns the built-in package index with the paper's
// Table II package population.
func DefaultCatalog() *PackageIndex { return pypkg.DefaultCatalog() }

// NewEnv returns an empty named Python environment.
func NewEnv(name string) *PythonEnv { return pypkg.NewEnvironment(name) }

// AnalyzeFunction statically analyzes one function in the given Python
// source and reports its minimal dependencies, resolved against env.
func AnalyzeFunction(src, function string, ix *PackageIndex, env *PythonEnv) (*DependencyReport, error) {
	return deps.NewAnalyzer(ix, env).AnalyzeFunction(src, function)
}

// AnalyzeSource analyzes a whole Python module.
func AnalyzeSource(src string, ix *PackageIndex, env *PythonEnv) (*DependencyReport, error) {
	return deps.NewAnalyzer(ix, env).AnalyzeSource(src)
}

// AnalyzeAppFunctions analyzes every function in the module decorated with
// one of the given decorators (e.g. "python_app"), keyed by function name —
// the Parsl integration surface of §V-B.
func AnalyzeAppFunctions(src string, ix *PackageIndex, decorators ...string) (map[string]*DependencyReport, error) {
	return deps.NewAnalyzer(ix, nil).AnalyzeAppFunctions(src, decorators...)
}

// ExtractFunctionSource returns the named function's source text
// (decorators included) from a Python module — the code fragment shipped to
// workers alongside its pickled arguments.
func ExtractFunctionSource(src, function string) (string, error) {
	return pyast.ExtractFunctionSource(src, function)
}

// ResolveEnv resolves requirement specs (pip syntax, e.g. "numpy>=1.18")
// into a full closure using the index.
func ResolveEnv(ix *PackageIndex, reqs ...string) (*Resolution, error) {
	specs := make([]pypkg.Spec, 0, len(reqs))
	for _, r := range reqs {
		s, err := pypkg.ParseSpec(r)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return ix.Resolve(specs)
}

// WriteRequirements emits a report's pinned distributions in pip
// requirements syntax, the interchange format the analysis tool produces.
func WriteRequirements(w io.Writer, rep *DependencyReport) error {
	return pypkg.WriteRequirements(w, rep.Distributions)
}

// ---- Environment packaging (paper §V-C/D) ----

// Tarball is a packed, relocatable environment archive.
type Tarball = envpack.Tarball

// Pack captures a resolved closure as a real .tar.gz with a manifest,
// placeholder payloads, and a relocatable prefix (conda-pack analogue).
func Pack(name string, res *Resolution) (*Tarball, error) {
	return envpack.DefaultPacker().Pack(name, res)
}

// Manifest is the metadata stored inside every packed environment.
type Manifest = envpack.Manifest

// ReadManifest extracts the manifest from a packed environment without
// unpacking payload files.
func ReadManifest(data []byte) (*Manifest, error) { return envpack.ReadManifest(data) }

// Unpack extracts a packed environment into dir and returns its manifest.
func Unpack(data []byte, dir string) (*Manifest, error) {
	return envpack.Unpack(data, dir)
}

// Relocate rewrites an unpacked environment's prefix (conda-unpack step).
func Relocate(dir, newPrefix string) (oldPrefix string, err error) {
	return envpack.Relocate(dir, newPrefix)
}

// ---- Real process monitoring ----

// ProcessLimits bounds a real monitored process tree.
type ProcessLimits = procmon.Limits

// ProcessReport is the outcome of a real monitored run.
type ProcessReport = procmon.Report

// RunMonitored executes cmd under a real /proc-based LFM with the given
// limits, killing the whole process tree on violation. Linux only.
func RunMonitored(ctx context.Context, cmd *exec.Cmd, limits ProcessLimits, poll time.Duration) (*ProcessReport, error) {
	m := &procmon.Monitor{PollInterval: poll}
	return m.RunLimited(ctx, cmd, limits)
}

// ProcessSample is one live /proc measurement of a monitored process tree.
type ProcessSample = procmon.Sample

// RunMonitoredObserved is RunMonitored with a live observer: onSample
// receives every poll as it is taken (lfmrun's -top view renders from it).
// A nil onSample is equivalent to RunMonitored.
func RunMonitoredObserved(ctx context.Context, cmd *exec.Cmd, limits ProcessLimits, poll time.Duration, onSample func(ProcessSample)) (*ProcessReport, error) {
	m := &procmon.Monitor{PollInterval: poll, Callback: onSample}
	return m.RunLimited(ctx, cmd, limits)
}

// ---- Allocation strategies (paper §VI-B2) ----

// Strategy labels tasks with resource allocations and learns from outcomes.
type Strategy = alloc.Strategy

// NewAutoStrategy returns the automatic first-allocation labeler.
func NewAutoStrategy() *alloc.Auto { return alloc.NewAuto() }

// NewGuessStrategy returns a fixed user-provided label strategy.
func NewGuessStrategy(fixed Resources) Strategy { return &alloc.Guess{Fixed: fixed} }

// NewUnmanagedStrategy returns whole-node unmonitored execution.
func NewUnmanagedStrategy() Strategy { return &alloc.Unmanaged{} }

// NewOracleStrategy returns a perfect-knowledge strategy over per-category
// true peaks (reference only; unobtainable in practice).
func NewOracleStrategy(peaks map[string]Resources) Strategy {
	return &alloc.Oracle{Peaks: peaks, Pad: 0.05}
}

// ---- Dataflow (Parsl analogue) ----

// DFK is the dataflow kernel managing apps, futures, and executors.
type DFK = parsl.DFK

// AppFunc is an app body.
type AppFunc = parsl.AppFunc

// NewDFK returns a dataflow kernel running up to maxConcurrent tasks on a
// local thread (goroutine) pool.
func NewDFK(maxConcurrent int) *DFK {
	return parsl.NewDFK(parsl.NewThreadPool(maxConcurrent))
}

// NewRemoteDFK returns a dataflow kernel whose executor forces every call's
// arguments and results through the serialization layer (the paper's
// pickled transferable files), catching non-serializable payloads locally
// before a workload ever reaches a cluster.
func NewRemoteDFK(maxConcurrent int) *DFK {
	return parsl.NewDFK(parsl.NewSerializingExecutor(parsl.NewThreadPool(maxConcurrent)))
}

// CommandResult is the output and resource report of a monitored command app.
type CommandResult = parsl.CommandResult

// MonitoredCommandApp returns an app body that runs program under a real
// /proc-based LFM with the given limits (the bash_app analogue): submit-time
// string arguments become program arguments, and the future resolves to a
// *CommandResult. Linux only.
func MonitoredCommandApp(program string, limits ProcessLimits, poll time.Duration) AppFunc {
	return parsl.MonitoredCommand(program, limits, poll)
}

// ---- Simulation-backed evaluation ----

// Workload is a generated evaluation task set.
type Workload = workloads.Workload

// RunConfig configures one simulated workload execution.
type RunConfig = core.RunConfig

// Outcome summarizes a simulated run.
type Outcome = core.Outcome

// HEPWorkload generates the Coffea HEP analysis workload (§VI-C1).
func HEPWorkload(seed int64, analysisTasks int) *Workload {
	return workloads.HEP(sim.NewRNG(seed), analysisTasks)
}

// DrugScreenWorkload generates the drug screening pipeline (§VI-C2).
func DrugScreenWorkload(seed int64, batches int) *Workload {
	return workloads.DrugScreen(sim.NewRNG(seed), batches)
}

// GenomicsWorkload generates the GDC genomic analysis pipeline (§VI-C3).
func GenomicsWorkload(seed int64, genomes int) *Workload {
	return workloads.Genomics(sim.NewRNG(seed), genomes)
}

// FuncXWorkload generates the funcX ResNet classification benchmark (§VI-C4).
func FuncXWorkload(seed int64, tasks int) *Workload {
	return workloads.FuncXResNet(sim.NewRNG(seed), tasks)
}

// ScaleWorkload generates the synthetic scheduler-stress workload used by
// the scale benchmark: `tasks` independent single-core tasks over
// `categories` categories, all ready at t=0.
func ScaleWorkload(seed int64, tasks, categories int) *Workload {
	return workloads.Scale(sim.NewRNG(seed), tasks, categories)
}

// Site describes a simulated cluster site. Set RunConfig.Site to run on a
// synthetic pool instead of one of the named sites.
type Site = cluster.Site

// Sites returns the built-in site catalog by name.
func Sites() map[string]Site { return cluster.Sites() }

// RunWorkload executes a workload on a simulated site under a strategy.
func RunWorkload(w *Workload, cfg RunConfig) (*Outcome, error) { return core.Run(w, cfg) }

// StrategyFor builds "oracle", "auto", "guess", or "unmanaged" for a
// workload.
func StrategyFor(name string, w *Workload) (Strategy, error) { return core.StrategyFor(name, w) }

// StrategyNames lists the four evaluation strategies in the paper's order.
func StrategyNames() []string { return core.Strategies() }

// FaaSResult summarizes one simulated funcX batch (§VI-C4).
type FaaSResult = core.FaaSResult

// RunFaaSBatch dispatches a batch of ResNet classification invocations
// through the funcX FaaS layer to an LFM endpoint on the named site, under
// the named strategy.
func RunFaaSBatch(seed int64, site string, workers, tasks int, strategy string) (*FaaSResult, error) {
	return core.RunFuncXBatch(seed, site, workers, tasks, strategy)
}

// ExecutionTrace records a run's scheduler activity when attached to a
// RunConfig. It is a facade over a TraceStore of hierarchical, causally
// linked spans covering every task's full lifecycle (dependency wait, ready
// queue, staging, execution with monitor overhead, output retrieval); the
// flat Events/Spans API of earlier versions is derived from the store.
type ExecutionTrace = wq.Trace

// TraceStore is the span store behind an ExecutionTrace: hierarchical spans,
// causal DAG links, critical-path and bottleneck analysis, and JSON/Perfetto
// export. Obtain one with ExecutionTrace.Store or load a saved trace with
// ReadTrace.
type TraceStore = trace.Store

// TraceSpan is one recorded interval (a task phase, a monitor measurement, a
// worker lifetime).
type TraceSpan = trace.Span

// TraceCriticalPath is the chain of phase spans that determined a run's
// makespan, with a per-phase time breakdown.
type TraceCriticalPath = trace.CriticalPath

// Failure-domain span kinds recorded by the chaos engine and the hardening
// machinery; everything else in a trace uses task/worker lifecycle kinds.
const (
	TraceKindChaos      = trace.KindChaos
	TraceKindSuspect    = trace.KindSuspect
	TraceKindQuarantine = trace.KindQuarantine
	TraceKindKill       = trace.KindKill
	TraceKindAnomaly    = trace.KindAnomaly
)

// ReadTrace loads a span store saved with TraceStore.WriteJSON.
func ReadTrace(r io.Reader) (*TraceStore, error) { return trace.ReadJSON(r) }

// ---- Failure model & chaos engineering ----

// ResilienceConfig tunes failure detection and mitigation in the scheduler:
// heartbeat-based crash detection, speculative re-execution of stragglers, a
// per-worker quarantine circuit breaker, and staging-transfer retries under
// exponential backoff. The zero value keeps the historical fail-fast
// behaviour; set it on RunConfig.Resilience.
type ResilienceConfig = wq.ResilienceConfig

// ChaosSchedule is a declarative fault plan driven over a run when set on
// RunConfig.Faults: worker crashes and slowdowns, filesystem brownouts and
// outages, staging-transfer failures, provisioning rejections, deferred
// (zombie) kills, and continuous worker churn.
type ChaosSchedule = chaos.Schedule

// ChaosProfile builds one of the canned fault schedules ("churn",
// "stragglers", "flaky-staging", "blackout", "storm") scaled to a run
// expected to last about horizon.
func ChaosProfile(name string, horizon Time) (*ChaosSchedule, error) {
	return chaos.Profile(name, horizon)
}

// ---- Metrics & observability ----

// MetricsRegistry holds named counters, gauges, and histograms. Attach one
// to a RunConfig to instrument a whole simulated run (scheduler, monitors,
// cluster, filesystem, allocation strategy).
type MetricsRegistry = metrics.Registry

// MetricsLabel is one key=value dimension on an instrument.
type MetricsLabel = metrics.Label

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// MetricsTimeBuckets returns the default latency histogram bounds
// (exponential, 0.05s–~27min) used by the built-in instrumentation.
func MetricsTimeBuckets() []float64 { return metrics.DefTimeBuckets() }

// ---- Resource time-series telemetry ----

// TelemetryConfig tunes per-invocation resource time-series capture; attach
// one to RunConfig.Telemetry to record every monitor measurement of a run
// under a bounded memory budget.
type TelemetryConfig = tseries.Config

// RunTelemetry is the recorded product of one telemetry-enabled run:
// per-category usage profiles, per-node utilization timelines, per-attempt
// usage series, and detected anomalies.
type RunTelemetry = tseries.RunTelemetry

// TelemetryNode is one worker node's allocated-versus-used timeline with
// exact core-second and MB-second integrals.
type TelemetryNode = tseries.NodeSummary

// TelemetryUtilization aggregates cluster-wide allocated-versus-used
// capacity into waste and packing summaries.
type TelemetryUtilization = tseries.UtilizationSummary

// TelemetryPoint is one delta-encoded point of a usage or level series: DT
// since the previous point, componentwise-max usage U over the N merged raw
// measurements, and the OR of their source flags.
type TelemetryPoint = tseries.Point

// DefaultTelemetryConfig returns the default telemetry configuration.
func DefaultTelemetryConfig() *TelemetryConfig { return tseries.DefaultConfig() }

// ReadTelemetry parses a telemetry export (as written by WriteTelemetry):
// one framed file holding every run. An export in the pre-v2 layout, from
// a newer schema, or cut off before its footer fails with an error naming
// the reason (bad-format, bad-version or corrupt) and the line.
func ReadTelemetry(r io.Reader) ([]*RunTelemetry, error) { return tseries.ReadJSONL(r) }

// WriteTelemetry writes runs as one telemetry export, byte-deterministic
// for identical telemetry.
func WriteTelemetry(w io.Writer, runs []*RunTelemetry) error { return tseries.WriteJSONL(w, runs) }

// ---- Streaming run observability ----

// ObsConfig attaches the streaming observability plane to a run: set it on
// RunConfig.Obs to seal deterministic RunSnapshots at a simulated-time
// cadence and stream them as JSONL — all without
// perturbing the run (outcomes, placements, and traces stay byte-identical).
type ObsConfig = obs.Config

// RunObs is a run's retained observability: the decimated snapshot ring
// spanning the whole timeline plus the final snapshot; see Outcome.Obs.
type RunObs = obs.RunObs

// ObsLatencyQuantiles summarizes one latency distribution
// (count/mean/p50/p99/p999/max).
type ObsLatencyQuantiles = obs.LatencyQuantiles

// RunHealth is the rule-driven end-of-run health report; see
// Outcome.Health and cmd/lfmreport.
type RunHealth = obs.Health

// HealthConfig tunes the health rules' thresholds and optional latency
// SLOs; set it on ObsConfig.Health.
type HealthConfig = obs.HealthConfig

// ObsStream is a parsed obs stream (run identity, snapshots, final, health).
type ObsStream = obs.Stream

// RunSummary is the unified single-document summary of a run (headline
// stats, scheduler work, telemetry waste, latency quantiles, health);
// rendered by Outcome.WriteSummaryJSON.
type RunSummary = core.RunSummary

// ReadObsStream parses an obs stream written via ObsConfig.Stream. A stream
// in the pre-v2 layout, from a newer schema, or cut off before its footer
// fails with an error naming the reason (bad-format, bad-version or
// corrupt) and the line.
func ReadObsStream(r io.Reader) (*ObsStream, error) { return obs.ReadStream(r) }

// AnalyzeObs runs the health rules over a run's retained snapshots. A nil
// cfg uses the default thresholds.
func AnalyzeObs(ro *RunObs, cfg *HealthConfig) *RunHealth { return obs.Analyze(ro, cfg) }

// Sparkline renders vals as a fixed-width unicode sparkline (lfmreport's
// queue-depth and utilization timelines).
func Sparkline(vals []float64, width int) string { return obs.Sparkline(vals, width) }

// Bar renders a 0..1 fraction as a fixed-width block bar (lfmrun's
// RSS-against-limit gauge).
func Bar(frac float64, width int) string { return obs.Bar(frac, width) }

// ---- Open-loop serving ----

// ServingConfig drives a run open-loop: set it on RunConfig.Serving to
// stream tasks in from per-tenant arrival processes under admission
// control, token-bucket rate limits, fair-share load shedding, and
// cooperative backpressure instead of submitting everything at t=0.
type ServingConfig = serve.Config

// ServingTenant configures one traffic source of a serving run: its
// arrival process, fair-share weight, shed priority, rate limit, and
// whether it cooperates with backpressure.
type ServingTenant = serve.TenantConfig

// ServingReport is the frontend's end-of-run accounting: offered vs
// accepted/rejected/shed/throttled, per-tenant breakdowns, and
// arrival→completion latency quantiles; see Outcome.Serving.
type ServingReport = serve.Report

// Overload is the typed error describing why the frontend turned an
// arrival away (throttled, shed, queue-full, dep-dropped).
type Overload = serve.Overload

// PoissonArrivals is a memoryless constant-rate arrival process.
type PoissonArrivals = workloads.Poisson

// ---- Scenario harness & trace replay ----

// Scenario is one canned, seeded, self-describing regression scenario: a
// workload generator composed with a chaos profile, resilience config, and
// serving settings, plus its own invariants and headline metrics. The
// cmd/lfmscenario CLI drives the registry; `make scenarios` runs the suite
// as a regression gate.
type Scenario = scenario.Scenario

// ScenarioResult is one scenario run's deterministic record: summary,
// headline metrics, and per-invariant verdicts.
type ScenarioResult = scenario.Result

// ScenarioConfig is the serializable slice of RunConfig a scenario (and a
// trace header) carries: pool shape, strategy name, seeds, resilience,
// fault schedule, telemetry — everything behavioural, nothing attached.
type ScenarioConfig = core.ScenarioConfig

// ScenarioReplay is a finished trace replay: the reconstructed run plus the
// recorded and recomputed outcome digests.
type ScenarioReplay = scenario.ReplayOutcome

// ScenarioByName returns the named canned scenario.
func ScenarioByName(name string) (*Scenario, error) { return scenario.Get(name) }

// AllScenarios returns every registered scenario, sorted by name.
func AllScenarios() []*Scenario { return scenario.All() }

// ReplayScenarioTrace decodes a recorded scenario trace and re-runs it
// byte-identically; check ScenarioReplay.Verify for divergence. The
// optional tr records the replay's scheduler event stream.
func ReplayScenarioTrace(data []byte, tr *ExecutionTrace) (*ScenarioReplay, error) {
	return scenario.ReplayTrace(data, tr)
}

// ScenarioCatalog renders the registry as the markdown catalog table
// embedded in README.md.
func ScenarioCatalog() string { return scenario.Catalog() }

// ScenarioRegressionTable renders suite results as the markdown regression
// table embedded in EXPERIMENTS.md.
func ScenarioRegressionTable(results []*ScenarioResult) string {
	return scenario.RegressionTable(results)
}

// RefreshScenarioSection splices generated content between begin/end
// markers in a documentation file, reporting whether the file changed.
func RefreshScenarioSection(path, begin, end, content string) (bool, error) {
	return scenario.RefreshSection(path, begin, end, content)
}

// Marker comments bracketing the generated scenario sections in README.md
// (catalog) and EXPERIMENTS.md (regression table).
const (
	ScenarioCatalogBegin    = scenario.CatalogBegin
	ScenarioCatalogEnd      = scenario.CatalogEnd
	ScenarioRegressionBegin = scenario.RegressionBegin
	ScenarioRegressionEnd   = scenario.RegressionEnd
)

// ---- Experiment reproduction ----

// ExperimentTable is one regenerated table or figure.
type ExperimentTable = experiments.Table

// ExperimentOptions tunes experiment scale and seeding.
type ExperimentOptions = experiments.Options

// ExperimentIDs lists every reproducible table and figure.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentTable, error) {
	d, ok := experiments.Registry()[id]
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return d(opt)
}

// RenderExperiment runs an experiment and writes its table to w.
func RenderExperiment(id string, opt ExperimentOptions, w io.Writer) error {
	tab, err := RunExperiment(id, opt)
	if err != nil {
		return err
	}
	tab.Render(w)
	return nil
}

// UnknownExperimentError reports an experiment ID outside ExperimentIDs.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "lfm: unknown experiment " + e.ID + " (see ExperimentIDs)"
}

// ---- Differential observability (run archives + lfmdiff) ----

// RunArchive is the versioned, self-contained run artifact the diff layer
// compares: header (config, seed, digest), unified summary, obs snapshot
// stream, scheduler counters, telemetry profiles, bottleneck buckets, and
// optionally the flat scheduler event stream.
type RunArchive = runarchive.Archive

// RunArchiveFormat is the format tag on a run archive's header line.
const RunArchiveFormat = runarchive.Format

// WriteRunArchive serializes an archive as JSONL, byte-deterministic for
// identical archives.
func WriteRunArchive(a *RunArchive) ([]byte, error) { return runarchive.Write(a) }

// ReadRunArchive parses and validates an archive; failures name the
// reason (bad-format, bad-version or corrupt) and the line.
func ReadRunArchive(data []byte) (*RunArchive, error) { return runarchive.Read(data) }

// ScenarioArchiveOptions parameterize RunScenarioArchived.
type ScenarioArchiveOptions = scenario.ArchiveOptions

// RunScenarioArchived executes a canned scenario with the observability
// plane and a scheduler trace attached, returning its result and archive.
func RunScenarioArchived(s *Scenario, opt ScenarioArchiveOptions) (*ScenarioResult, *RunArchive, error) {
	return s.RunArchived(opt)
}

// DiffReport is the structured comparison of two run archives: every
// shared metric classified improved/regressed/neutral plus bottleneck and
// health-finding attribution when anything regressed.
type DiffReport = diffobs.DiffReport

// DiffRunRef identifies one side of a DiffReport.
type DiffRunRef = diffobs.RunRef

// DiffThresholds is the noise model: a delta is neutral when within the
// metric's absolute band OR within Rel of the base value.
type DiffThresholds = diffobs.Thresholds

// DiffDivergence is the first divergent event between two scheduler event
// streams.
type DiffDivergence = diffobs.Divergence

// Diff classification labels.
const (
	DiffImproved  = diffobs.ClassImproved
	DiffRegressed = diffobs.ClassRegressed
	DiffNeutral   = diffobs.ClassNeutral
)

// DefaultDiffThresholds returns the regression gate's stock noise model.
func DefaultDiffThresholds() *DiffThresholds { return diffobs.DefaultThresholds() }

// DiffArchives compares base against cand (nil thresholds = defaults).
func DiffArchives(base, cand *RunArchive, th *DiffThresholds) *DiffReport {
	return diffobs.Diff(base, cand, th)
}

// TraceEvent is one flat scheduler trace event (ExecutionTrace.Events).
type TraceEvent = wq.Event

// BisectEventStreams binary-searches two scheduler event streams to their
// first divergent event (nil when identical).
func BisectEventStreams(a, b []TraceEvent) *DiffDivergence { return diffobs.Bisect(a, b) }

// DiffPerturbation resolves a named gate self-test mutation; the gate runs
// scenarios with it applied and must fail against committed baselines.
func DiffPerturbation(name string) (func(*RunConfig), error) { return diffobs.Perturbation(name) }

// DiffPerturbationNames lists the registered gate perturbations.
func DiffPerturbationNames() []string { return diffobs.PerturbationNames() }
