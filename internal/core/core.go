// Package core is the LFM orchestrator: it composes the pieces the paper
// integrates — static dependency analysis (deps), environment resolution and
// packaging (pypkg/envpack), the Work Queue scheduler with per-task LFMs
// (wq/monitor), allocation strategies (alloc), and cluster provisioning
// (cluster) — into a single runner that executes a workload end to end on a
// simulated site and reports the measurements the paper's figures plot.
package core

import (
	"fmt"
	"math"

	"lfm/internal/alloc"
	"lfm/internal/chaos"
	"lfm/internal/cluster"
	"lfm/internal/deps"
	"lfm/internal/envpack"
	"lfm/internal/funcx"
	"lfm/internal/metrics"
	"lfm/internal/monitor"
	"lfm/internal/obs"
	"lfm/internal/pypkg"
	"lfm/internal/serve"
	"lfm/internal/sharedfs"
	"lfm/internal/sim"
	"lfm/internal/trace"
	"lfm/internal/tseries"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// RunConfig describes one end-to-end workload execution.
type RunConfig struct {
	// SiteName keys into cluster.Sites(); default "ndcrc".
	SiteName string
	// Workers is the number of nodes to provision.
	Workers int
	// WorkerCores/WorkerMemoryMB/WorkerDiskMB, if nonzero, shrink each
	// provisioned node to this shape (the paper's Figure 6 sweeps 2/4/8
	// core workers on ND-CRC).
	WorkerCores    int
	WorkerMemoryMB float64
	WorkerDiskMB   float64
	// Site, when non-nil, runs on a copy of this site description instead
	// of looking SiteName up in cluster.Sites(). Scale benchmarks use it to
	// provision synthetic pools bigger than any catalogued site.
	Site *cluster.Site
	// Strategy is the allocation strategy; default Auto.
	Strategy alloc.Strategy
	// Seed makes the run reproducible.
	Seed int64
	// NoBatchLatency provisions workers instantly (for experiments
	// measuring steady-state scheduling rather than queue waits).
	NoBatchLatency bool
	// Autoscale, when true, starts with one worker and lets an autoscaler
	// grow the pool (up to Workers) as backlog accumulates, instead of
	// provisioning the whole pool up front.
	Autoscale bool
	// Resilience configures failure detection and mitigation in the master
	// (heartbeats, speculation, quarantine, staging retries). Zero value
	// leaves the master's historical behaviour unchanged.
	Resilience wq.ResilienceConfig
	// Faults, when non-nil, drives a chaos fault-injection engine over the
	// run; the outcome then carries the engine's report, including any
	// invariant violations. Windowed faults keep the simulation clock
	// running until their window closes.
	Faults *chaos.Schedule
	// ChaosSeed seeds fault-injection randomness independently of Seed, so
	// the same disaster can replay over different workloads. 0 uses Seed.
	ChaosSeed int64
	// Trace, when non-nil, records every scheduler event of the run.
	Trace *wq.Trace
	// Metrics, when non-nil, instruments the whole stack (master, monitor,
	// cluster, filesystem, and — for Auto — the allocation strategy) on the
	// registry, and a passive sampler records counter/gauge timelines at
	// MetricsResolution on the engine's clock boundaries, plus one sample
	// at the makespan. The sampler schedules no events and the monitor's
	// per-poll wakes (for lfm_polls_total) change no outcome, so the run's
	// outcome and trace are byte-identical with Metrics on or off.
	Metrics *metrics.Registry
	// MetricsResolution is the sampling period (default 1s).
	MetricsResolution sim.Time
	// Telemetry, when non-nil, records per-attempt resource time series,
	// per-category usage profiles, and node utilization timelines; the
	// outcome then carries the run's telemetry. Recording is passive (the
	// run's placements and traces are unchanged), except that the flatline
	// anomaly detector becomes an extra speculation trigger when resilience
	// speculation is enabled.
	Telemetry *tseries.Config
	// Serving, when non-nil, runs the workload open-loop: instead of
	// submitting every task at t=0, a serving frontend streams tasks in
	// from per-tenant arrival processes under layered overload protection
	// (token buckets, bounded intake admission, fair-share priority-aware
	// shedding, cooperative backpressure). Tenants without a Feed share a
	// cursor over the workload's task list in order. The outcome then
	// carries the frontend's report (Outcome.Serving). Runs with Serving
	// nil never construct a frontend and stay byte-identical to before the
	// serving layer existed.
	Serving *serve.Config
	// Obs, when non-nil, attaches the streaming observability plane: a
	// snapshot bus that seals an obs.Snapshot of scheduler state every
	// Obs.Cadence of simulated time, keeps a bounded downsampled ring, and
	// optionally streams every boundary as JSONL. Observation is strictly
	// passive — the run's outcome, placements, and traces are byte-identical
	// with Obs on or off, and two same-seed runs produce byte-identical
	// streams. The outcome carries the retained snapshots (Outcome.Obs) and
	// the rule-driven health report (Outcome.Health).
	Obs *obs.Config

	// matcher selects the master's matching loop. Only the in-package
	// differential tests set it, to run the linear scan the indexed
	// matcher is checked against.
	matcher wq.Matcher
	// pollWakes attaches a no-op per-poll monitor callback. A live per-poll
	// consumer makes every monitored run wake the engine at each poll grid
	// point, as eager polling did; only the poll differential and
	// event-count tests set it.
	pollWakes bool
}

// Outcome summarizes one run.
type Outcome struct {
	Strategy  string
	Workload  string
	Workers   int
	Makespan  sim.Time
	Stats     wq.Stats
	TaskCount int
	Failed    int
	// RetryFraction is retries / submitted.
	RetryFraction float64
	// Categories aggregates monitored behaviour per task category.
	Categories []*wq.CategorySummary
	// Utilization is allocated core-time over provisioned core-time.
	Utilization float64
	// EffectiveUtilization is measured-used core-time over provisioned
	// core-time; the gap to Utilization is allocation waste.
	EffectiveUtilization float64
	// Sampler holds the recorded metric timelines when RunConfig.Metrics
	// was set, nil otherwise.
	Sampler *metrics.Sampler
	// ProvisionFailures counts batch-system rejections observed during the
	// run (worker replacements and autoscale requests); ProvisionError is
	// the last one's message. Zero and empty on healthy runs.
	ProvisionFailures int    `json:",omitempty"`
	ProvisionError    string `json:",omitempty"`
	// Chaos carries the fault-injection report (injection counts and any
	// invariant violations) when RunConfig.Faults was set, nil otherwise.
	Chaos *chaos.Report `json:",omitempty"`
	// Serving carries the serving frontend's accounting (offered/accepted/
	// rejected/shed/throttled, per-tenant breakdowns, e2e latency
	// quantiles) when RunConfig.Serving was set, nil otherwise.
	Serving *serve.Report `json:",omitempty"`
	// Sched measures the matching loop's work (rounds, candidates
	// examined, wall time). Excluded from JSON so seeded outcome snapshots
	// stay byte-identical across matcher implementations and hardware.
	Sched *wq.SchedStats `json:"-"`
	// Telemetry carries the recorded time-series products when
	// RunConfig.Telemetry was set, nil otherwise. Excluded from JSON (like
	// Sched) so outcome snapshots stay byte-identical; export it with
	// tseries.WriteJSONL.
	Telemetry *tseries.RunTelemetry `json:"-"`
	// Obs carries the retained run snapshots when RunConfig.Obs was set,
	// nil otherwise. Excluded from JSON (like Sched) so outcome snapshots
	// stay byte-identical; export the stream via obs.Config.Stream or
	// summarize with WriteSummaryJSON.
	Obs *obs.RunObs `json:"-"`
	// Health is the rule-driven end-of-run health report derived from the
	// retained snapshots when RunConfig.Obs was set, nil otherwise.
	// Excluded from JSON like Obs; WriteSummaryJSON includes it.
	Health *obs.Health `json:"-"`
	// Trace echoes RunConfig.Trace so downstream consumers (the run-archive
	// builder's bottleneck attribution and event-stream capture) can reach
	// the recorded spans from the outcome alone. Excluded from JSON like
	// Sched; nil on untraced runs.
	Trace *wq.Trace `json:"-"`

	// events is the engine's dispatch count for the run (sim.Engine's
	// Processed); the event-count tests read it.
	events uint64
}

// Run executes the workload on the configured site and strategy.
func Run(w *workloads.Workload, cfg RunConfig) (*Outcome, error) {
	var site cluster.Site
	if cfg.Site != nil {
		site = *cfg.Site
	} else {
		if cfg.SiteName == "" {
			cfg.SiteName = "ndcrc"
		}
		var ok bool
		site, ok = cluster.Sites()[cfg.SiteName]
		if !ok {
			return nil, fmt.Errorf("core: unknown site %q", cfg.SiteName)
		}
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("core: need at least one worker")
	}
	if cfg.Workers > site.Nodes {
		return nil, fmt.Errorf("core: site %s has only %d nodes", site.Name, site.Nodes)
	}
	if cfg.WorkerCores > 0 {
		site.CoresPerNode = cfg.WorkerCores
	}
	if cfg.WorkerMemoryMB > 0 {
		site.MemoryMBPerNode = cfg.WorkerMemoryMB
	}
	if cfg.WorkerDiskMB > 0 {
		site.DiskMBPerNode = cfg.WorkerDiskMB
	}
	if cfg.NoBatchLatency {
		site.BatchLatency = 0
		site.Jitter = 0
	}
	if err := checkTimeKnob("MetricsResolution", cfg.MetricsResolution); err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		if err := cfg.Obs.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if cfg.Serving != nil {
		if err := cfg.Serving.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = alloc.NewAuto()
	}

	eng := sim.NewEngine(cfg.Seed)
	cl := cluster.New(eng, site)
	mcfg := wq.DefaultConfig()
	mcfg.Strategy = strategy
	mcfg.Matcher = cfg.matcher
	mcfg.Monitor.Metrics = cfg.Metrics
	if cfg.pollWakes {
		mcfg.Monitor.Callback = func(sim.Time, monitor.Resources) {}
	}
	mcfg.Resilience = cfg.Resilience
	master := wq.NewMaster(eng, mcfg)
	if cfg.Trace != nil {
		master.SetTrace(cfg.Trace)
		// Provisioning and filesystem activity record into the same store,
		// so exports show batch-queue waits alongside task phases.
		cl.SetTrace(cfg.Trace.Store())
	}
	var bus *obs.Bus
	if cfg.Obs != nil {
		ocfg := *cfg.Obs
		ocfg.Meta = obs.StreamMeta{
			Workload: w.Name, Strategy: strategy.Name(),
			Workers: cfg.Workers, Seed: cfg.Seed,
		}
		var err error
		if bus, err = obs.NewBus(eng, &ocfg); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		master.SetObs(bus)
	}
	var telem *tseries.Collector
	if cfg.Telemetry != nil {
		telem = tseries.NewCollector(eng, cfg.Telemetry)
		if cfg.Trace != nil {
			telem.SetTrace(cfg.Trace.Store())
		}
		if auto, ok := strategy.(*alloc.Auto); ok {
			telem.SetLabelAudit(auto.CurrentLabel)
		}
		master.SetTelemetry(telem)
	}
	var sampler *metrics.Sampler
	if cfg.Metrics != nil {
		master.SetMetrics(cfg.Metrics)
		cl.SetMetrics(cfg.Metrics)
		if auto, ok := strategy.(*alloc.Auto); ok {
			auto.SetMetrics(cfg.Metrics)
		}
		sampler = metrics.NewSampler(eng, cfg.Metrics, cfg.MetricsResolution)
	}

	var workers []*wq.Worker
	join := func(n *cluster.Node) { workers = append(workers, master.AddWorker(n)) }

	// Provisioning failures — batch-system rejections of replacement or
	// autoscale requests — are recorded as they happen (counter + trace
	// event) and surfaced in the outcome, instead of being dropped.
	provisionFailures := 0
	var lastProvisionErr error
	recordProvisionFailure := func(err error) {
		provisionFailures++
		lastProvisionErr = err
		if cfg.Metrics != nil {
			cfg.Metrics.Help("core_provision_failures_total", "pilot-job requests the batch system rejected")
			cfg.Metrics.Counter("core_provision_failures_total").Inc()
		}
		if cfg.Trace != nil {
			cfg.Trace.Store().Instant(trace.Span{
				Kind: trace.KindProvision, Task: -1, Worker: -1,
				Outcome: trace.OutcomeFailed, Detail: err.Error(),
			}, eng.Now())
		}
	}
	// provisionReplacement requests one replacement pilot job, retrying a
	// rejection under exponential backoff with jitter — a transient batch
	// outage only delays the replacement instead of silently shrinking the
	// pool for the rest of the run.
	provBackoff := sim.Backoff{Base: 2 * sim.Second, Max: 2 * sim.Minute, Jitter: 0.5}
	var provRNG *sim.RNG
	const provisionAttempts = 6
	var fe *serve.Frontend // open-loop serving frontend; nil on batch runs
	var provisionReplacement func(try int)
	provisionReplacement = func(try int) {
		st := master.Stats()
		drained := st.Submitted > 0 && st.Completed+st.Failed >= st.Submitted
		if drained && (fe == nil || !fe.Active()) {
			return // drained; a replacement would never run anything
		}
		if err := cl.Provision(1, join); err == nil {
			return
		} else {
			recordProvisionFailure(err)
			if try+1 >= provisionAttempts {
				return // degraded for good; surfaced in the outcome
			}
		}
		if provRNG == nil {
			provRNG = eng.RNG().Fork()
		}
		eng.After(provBackoff.Delay(try, provRNG), func() { provisionReplacement(try + 1) })
	}

	var scaler *wq.Autoscaler
	if cfg.Autoscale {
		scaler = &wq.Autoscaler{
			Master:     master,
			Request:    func(n int) error { return cl.Provision(n, join) },
			MinWorkers: 1,
			MaxWorkers: cfg.Workers,
			Interval:   20 * sim.Second,
			OnError:    recordProvisionFailure,
		}
	} else if err := cl.Provision(cfg.Workers, join); err != nil {
		return nil, err
	}

	var chaosEng *chaos.Engine
	if cfg.Faults != nil {
		seed := cfg.ChaosSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		chaosEng = chaos.New(eng, *cfg.Faults, sim.NewRNG(seed))
		chaosEng.Bind(master, cl)
		if cfg.Trace != nil {
			chaosEng.SetTrace(cfg.Trace.Store())
		}
		if bus != nil {
			chaosEng.SetObserver(func(k chaos.FaultKind) { bus.ChaosInjected(string(k)) })
		}
		chaosEng.SetReplacer(func() { provisionReplacement(0) })
		if err := chaosEng.Start(); err != nil {
			return nil, err
		}
	}

	if cfg.Serving != nil {
		// Tenants without an explicit Feed share a cursor over the workload's
		// task list, streaming it in arrival order instead of the t=0 bulk
		// submit below.
		scfg := *cfg.Serving
		scfg.Tenants = append([]serve.TenantConfig(nil), cfg.Serving.Tenants...)
		cursor := 0
		sharedFeed := func() *wq.Task {
			if cursor >= len(w.Tasks) {
				return nil
			}
			t := w.Tasks[cursor]
			cursor++
			return t
		}
		for i := range scfg.Tenants {
			if scfg.Tenants[i].Feed == nil {
				scfg.Tenants[i].Feed = sharedFeed
			}
		}
		var err error
		fe, err = serve.New(eng, master, &scfg)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		master.OnTaskDone(fe.TaskDone)
		if bus != nil {
			fe.SetObs(bus)
		}
		if chaosEng != nil {
			chaosEng.SetServing(fe)
			chaosEng.AddCheck(fe.CheckInvariants)
		}
	}

	if scaler != nil && cfg.Faults != nil {
		// Injected provisioning rejections are survivable by design: the
		// autoscaler retries through fault windows instead of dying on the
		// first refusal. Every failure is still recorded in the outcome.
		scaler.MaxRetries = 1 << 20
	}

	eng.At(0, func() {
		if scaler != nil {
			scaler.Start()
		}
		if fe != nil {
			fe.Start()
		} else {
			for _, t := range w.Tasks {
				master.Submit(t)
			}
		}
		if sampler != nil {
			sampler.Start()
		}
	})
	makespan := eng.Run()
	if scaler != nil && scaler.Err() != nil {
		return nil, scaler.Err()
	}

	st := master.Stats()
	out := &Outcome{
		Strategy:             strategy.Name(),
		Workload:             w.Name,
		Workers:              cfg.Workers,
		Makespan:             makespan,
		Stats:                *st,
		TaskCount:            len(w.Tasks),
		Failed:               st.Failed,
		Categories:           master.CategorySummaries(),
		Utilization:          master.Utilization(),
		EffectiveUtilization: master.EffectiveUtilization(),
		Sampler:              sampler,
		ProvisionFailures:    provisionFailures,
		Sched:                master.SchedStats(),
		Trace:                cfg.Trace,
		events:               eng.Processed,
	}
	if lastProvisionErr != nil {
		out.ProvisionError = lastProvisionErr.Error()
	}
	if st.Submitted > 0 {
		out.RetryFraction = float64(st.Retries) / float64(st.Submitted)
	}
	if telem != nil {
		out.Telemetry = telem.Finalize(tseries.RunMeta{
			Workload: w.Name, Strategy: strategy.Name(),
			Workers: cfg.Workers, Seed: cfg.Seed, Makespan: makespan,
		})
	}
	if chaosEng != nil {
		// Fold invariant-checker findings into the chaos report: every
		// submitted task must have terminated and nothing may have leaked,
		// no matter what the schedule did to the run.
		_ = chaosEng.Finish()
		out.Chaos = chaosEng.Report()
	}
	if fe != nil {
		if err := fe.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		out.Serving = fe.Report()
	}
	if bus != nil {
		ro, err := bus.Finalize(makespan)
		if err != nil {
			return nil, fmt.Errorf("core: obs stream: %w", err)
		}
		out.Obs = ro
		out.Health = obs.Analyze(ro, cfg.Obs.Health)
		if err := bus.Close(out.Health); err != nil {
			return nil, fmt.Errorf("core: obs stream: %w", err)
		}
	}
	return out, nil
}

// checkTimeKnob rejects negative or non-finite durations on a RunConfig time
// knob with a clear error; zero is allowed and means "use the default".
func checkTimeKnob(name string, v sim.Time) error {
	f := float64(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("core: %s must be finite, got %v", name, f)
	}
	if v < 0 {
		return fmt.Errorf("core: %s must be >= 0, got %v", name, f)
	}
	return nil
}

// StrategyFor builds the named strategy for a workload: "oracle", "auto",
// "guess", or "unmanaged".
func StrategyFor(name string, w *workloads.Workload) (alloc.Strategy, error) {
	switch name {
	case "oracle":
		return &alloc.Oracle{Peaks: w.OraclePeaks, Pad: 0.05}, nil
	case "auto":
		return alloc.NewAuto(), nil
	case "guess":
		return &alloc.Guess{Fixed: w.Guess}, nil
	case "unmanaged":
		return &alloc.Unmanaged{}, nil
	}
	return nil, fmt.Errorf("core: unknown strategy %q", name)
}

// Strategies lists the four evaluation strategies in the paper's order.
func Strategies() []string { return []string{"oracle", "auto", "guess", "unmanaged"} }

// PrepareEnvironment runs the paper's full environment pipeline for a Parsl
// app function: static analysis of the function source, minimal closure
// resolution against the user's environment, and conda-pack packaging. It
// returns the wq input file workers will receive (with transfer size and
// unpack cost from the cost model) plus the analysis report and closure.
func PrepareEnvironment(src, funcName string, ix *pypkg.Index, env *pypkg.Environment) (*wq.File, *deps.Report, *pypkg.Resolution, error) {
	analyzer := deps.NewAnalyzer(ix, env)
	rep, err := analyzer.AnalyzeFunction(src, funcName)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: analyze %s: %w", funcName, err)
	}
	if len(rep.Unknown) > 0 {
		return nil, rep, nil, fmt.Errorf("core: function %s imports unknown modules %v", funcName, rep.Unknown)
	}
	res, err := analyzer.MinimalClosure(rep)
	if err != nil {
		return nil, rep, nil, fmt.Errorf("core: resolve %s: %w", funcName, err)
	}
	model := envpack.DefaultCostModel()
	file := &wq.File{
		Name:       fmt.Sprintf("env-%s.tar.gz", funcName),
		SizeBytes:  model.PackedBytes(res),
		Cacheable:  true,
		UnpackTime: model.UnpackTime(res),
	}
	return file, rep, res, nil
}

// ImportScaling measures one concurrent-import experiment point: mean
// per-client import latency when `clients` processes cold-import the given
// closure from the shared filesystem at once (Figure 4's y-axis).
func ImportScaling(siteName string, res *pypkg.Resolution, clients int, seed int64) (sim.Time, error) {
	site, ok := cluster.Sites()[siteName]
	if !ok {
		return 0, fmt.Errorf("core: unknown site %q", siteName)
	}
	eng := sim.NewEngine(seed)
	fs := sharedfs.New(eng, site.FS)
	im := sharedfs.NewImporter(eng, fs, envpack.DefaultCostModel())
	var total sim.Time
	eng.At(0, func() {
		for i := 0; i < clients; i++ {
			im.ImportDirect(res, func(el sim.Time) { total += el })
		}
	})
	eng.Run()
	return total / sim.Time(clients), nil
}

// FaaSResult summarizes one funcX batch execution (§VI-C4).
type FaaSResult struct {
	// BatchTime is invocation of the batch to last completion.
	BatchTime sim.Time
	// MeanLatency is the mean per-invocation submit-to-result time.
	MeanLatency sim.Time
	Invocations int
	Completions int
	Retries     int
}

// RunFuncXBatch registers the ResNet classification function with a funcX
// service, provisions an endpoint on the named site, and invokes the
// function tasks times under the named strategy ("oracle", "auto", "guess",
// or "unmanaged").
func RunFuncXBatch(seed int64, siteName string, workers, tasks int, strategyName string) (*FaaSResult, error) {
	w := workloads.FuncXResNet(sim.NewRNG(seed), tasks)
	strategy, err := StrategyFor(strategyName, w)
	if err != nil {
		return nil, err
	}
	site, ok := cluster.Sites()[siteName]
	if !ok {
		return nil, fmt.Errorf("core: unknown site %q", siteName)
	}
	site.BatchLatency = 0
	site.Jitter = 0

	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, site)
	mcfg := wq.DefaultConfig()
	mcfg.Strategy = strategy
	master := wq.NewMaster(eng, mcfg)
	if err := cl.Provision(workers, func(n *cluster.Node) { master.AddWorker(n) }); err != nil {
		return nil, err
	}

	svc := funcx.NewService(eng)
	if err := svc.AddEndpoint(&funcx.Endpoint{Name: "ep", Master: master}); err != nil {
		return nil, err
	}
	next := 0
	fnID, err := svc.Register(&funcx.Function{
		Name:     "classify",
		Category: "resnet-infer",
		Make: func(int) *wq.Task {
			task := w.Tasks[next]
			next++
			return task
		},
	})
	if err != nil {
		return nil, err
	}
	var batchEnd sim.Time
	var invokeErr error
	eng.At(0, func() {
		invokeErr = svc.InvokeBatch(fnID, "ep", tasks, func() { batchEnd = eng.Now() })
	})
	eng.Run()
	if invokeErr != nil {
		return nil, invokeErr
	}
	if svc.Completions != tasks {
		return nil, fmt.Errorf("core: funcx completed %d/%d invocations", svc.Completions, tasks)
	}
	return &FaaSResult{
		BatchTime:   batchEnd,
		MeanLatency: sim.Time(svc.Latency.Mean()),
		Invocations: svc.Invocations,
		Completions: svc.Completions,
		Retries:     master.Stats().Retries,
	}, nil
}

// DistributionMethod identifies how environments reach workers in the
// Figure 5 comparison.
type DistributionMethod string

// Figure 5's two contrasted methods.
const (
	DirectSharedFS DistributionMethod = "direct"
	LocalUnpack    DistributionMethod = "local-unpack"
)

// CumulativeImport measures total (summed) import time across nodes*cores
// concurrent cold starts using the given distribution method (Figure 5's
// y-axis).
func CumulativeImport(siteName string, res *pypkg.Resolution, nodes, coresPerNode int, method DistributionMethod, seed int64) (sim.Time, error) {
	site, ok := cluster.Sites()[siteName]
	if !ok {
		return 0, fmt.Errorf("core: unknown site %q", siteName)
	}
	eng := sim.NewEngine(seed)
	fs := sharedfs.New(eng, site.FS)
	im := sharedfs.NewImporter(eng, fs, envpack.DefaultCostModel())
	var cumulative sim.Time
	eng.At(0, func() {
		switch method {
		case DirectSharedFS:
			for i := 0; i < nodes*coresPerNode; i++ {
				im.ImportDirect(res, func(el sim.Time) { cumulative += el })
			}
		case LocalUnpack:
			for n := 0; n < nodes; n++ {
				disk := sharedfs.NewLocalDisk(eng, site.LocalDisk)
				im.StagePacked(res, disk, func(stage sim.Time) {
					cumulative += stage
					for c := 0; c < coresPerNode; c++ {
						im.ImportLocal(res, disk, func(el sim.Time) { cumulative += el })
					}
				})
			}
		}
	})
	eng.Run()
	if method != DirectSharedFS && method != LocalUnpack {
		return 0, fmt.Errorf("core: unknown distribution method %q", method)
	}
	return cumulative, nil
}
