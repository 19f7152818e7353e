// Command lfmbench regenerates the tables and figures of the LFM paper's
// evaluation on the built-in cluster simulator.
//
// Usage:
//
//	lfmbench [-quick] [-seed N] [experiment ...]
//	lfmbench -metrics-out FILE [-metrics-timeline FILE] [-metrics-resolution SECS]
//	lfmbench -trace-out FILE [-trace-format json|perfetto]
//	lfmbench -telemetry-out FILE [-telemetry-sweep]
//	lfmbench -scale [-scale-out FILE] [-scale-points LIST]
//	lfmbench -serve [-serve-out FILE] [-serve-loads LIST]
//
// With no arguments every experiment runs in the paper's order. Experiment
// IDs: fig4 fig5 table1 table2 table3 fig6 fig7 fig8 fig9 util.
//
// The -metrics-out form runs one instrumented Figure-6-style HEP workload
// (auto strategy, 20 four-core ND-CRC workers) and writes the final metric
// values in Prometheus text exposition format ("-" for stdout);
// -metrics-timeline additionally writes the sampled per-metric timelines as
// JSON. Experiments named on the command line still run afterwards.
//
// The -trace-out form runs the same HEP workload with span tracing enabled
// and writes the trace: format "json" (the default) is the lfm-trace span
// store consumed by cmd/lfmtrace, "perfetto" is Chrome trace-event JSON
// loadable at https://ui.perfetto.dev. Both forms may be combined.
//
// Observed single runs (chaos, snapshot stream, health, summary) come from
// the canned scenarios: `lfmscenario run overload-storm -archive FILE`
// writes a run archive that cmd/lfmreport renders and cmd/lfmdiff compares.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"lfm"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
	seed := flag.Int64("seed", 7, "simulation seed")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	metricsOut := flag.String("metrics-out", "", "run an instrumented HEP benchmark and write Prometheus text to this file (- for stdout)")
	metricsTimeline := flag.String("metrics-timeline", "", "with -metrics-out: also write sampled metric timelines as JSON to this file (- for stdout)")
	metricsRes := flag.Float64("metrics-resolution", 1, "sampling resolution in simulated seconds for -metrics-timeline")
	traceOut := flag.String("trace-out", "", "run a traced HEP benchmark and write the span trace to this file (- for stdout)")
	traceFormat := flag.String("trace-format", "json", "trace export format: json (lfm-trace store) or perfetto (Chrome trace-event)")
	scale := flag.Bool("scale", false, "run the scheduler scale sweep (up to 1M tasks x 50k workers; -quick shrinks it) and write BENCH_scheduler.json")
	scaleOut := flag.String("scale-out", "BENCH_scheduler.json", "with -scale: write the sweep report JSON to this file (- for stdout)")
	scalePoints := flag.String("scale-points", "", "with -scale: override sweep points, e.g. 100000x5000,1000000x50000")
	serveFlag := flag.Bool("serve", false, "run the open-loop serving sweep (Poisson arrivals at fractions of cluster capacity with admission control and load shedding) and write BENCH_serving.json")
	serveOut := flag.String("serve-out", "BENCH_serving.json", "with -serve: write the sweep report JSON to this file (- for stdout)")
	serveLoads := flag.String("serve-loads", "", "with -serve: override sweep load fractions, e.g. 0.5,1,2")
	telemetryOut := flag.String("telemetry-out", "", "run with resource time-series telemetry and write the JSONL export to this file (- for stdout); render it with cmd/lfmprof")
	telemetrySweep := flag.Bool("telemetry-sweep", false, "with -telemetry-out: record every paper workload under every strategy and print a utilization/waste table")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lfmbench [-quick] [-seed N] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "       lfmbench -metrics-out FILE [-metrics-timeline FILE] [-metrics-resolution SECS]\n")
		fmt.Fprintf(os.Stderr, "       lfmbench -trace-out FILE [-trace-format json|perfetto]\n")
		fmt.Fprintf(os.Stderr, "       lfmbench -telemetry-out FILE [-telemetry-sweep]\n")
		fmt.Fprintf(os.Stderr, "       lfmbench -scale [-scale-out FILE] [-scale-points LIST]\n")
		fmt.Fprintf(os.Stderr, "       lfmbench -serve [-serve-out FILE] [-serve-loads LIST]\n")
		fmt.Fprintf(os.Stderr, "for an observed chaos run, use: lfmscenario run overload-storm -archive FILE\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(lfm.ExperimentIDs(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfmbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lfmbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *list {
		for _, id := range lfm.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	if *metricsTimeline != "" && *metricsOut == "" {
		fmt.Fprintln(os.Stderr, "lfmbench: -metrics-timeline requires -metrics-out")
		os.Exit(2)
	}
	if *metricsOut != "" {
		if err := runInstrumented(*seed, *metricsRes, *metricsOut, *metricsTimeline); err != nil {
			fmt.Fprintf(os.Stderr, "lfmbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := runTraced(*seed, *traceOut, *traceFormat); err != nil {
			fmt.Fprintf(os.Stderr, "lfmbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *scale {
		if err := runScale(*seed, *quick, *scaleOut, *scalePoints); err != nil {
			fmt.Fprintf(os.Stderr, "lfmbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *serveFlag {
		if err := runServe(*seed, *quick, *serveOut, *serveLoads); err != nil {
			fmt.Fprintf(os.Stderr, "lfmbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *telemetrySweep && *telemetryOut == "" {
		fmt.Fprintln(os.Stderr, "lfmbench: -telemetry-sweep requires -telemetry-out")
		os.Exit(2)
	}
	if *telemetryOut != "" {
		if err := runTelemetry(*seed, *quick, *telemetrySweep, *telemetryOut); err != nil {
			fmt.Fprintf(os.Stderr, "lfmbench: %v\n", err)
			os.Exit(1)
		}
	}
	if (*metricsOut != "" || *traceOut != "" || *scale || *serveFlag || *telemetryOut != "") && flag.NArg() == 0 {
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = lfm.ExperimentIDs()
	}
	opt := lfm.ExperimentOptions{Quick: *quick, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		if err := lfm.RenderExperiment(id, opt, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "lfmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  (%s generated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// runHEP executes the Figure-6 point (HEP on ND-CRC, 20 four-core workers,
// auto strategy) with the sinks that attach sets on its config.
func runHEP(seed int64, attach func(*lfm.RunConfig)) (*lfm.Outcome, error) {
	w := lfm.HEPWorkload(seed, 200)
	strategy, err := lfm.StrategyFor("auto", w)
	if err != nil {
		return nil, err
	}
	cfg := lfm.RunConfig{
		SiteName: "ndcrc", Workers: 20,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: strategy, Seed: seed, NoBatchLatency: true,
	}
	attach(&cfg)
	return lfm.RunWorkload(w, cfg)
}

// runInstrumented executes the HEP benchmark point with full metrics
// instrumentation and writes the requested exports.
func runInstrumented(seed int64, resolution float64, promPath, timelinePath string) error {
	reg := lfm.NewMetricsRegistry()
	out, err := runHEP(seed, func(c *lfm.RunConfig) {
		c.Metrics, c.MetricsResolution = reg, lfm.Time(resolution)
	})
	if err != nil {
		return err
	}
	fmt.Printf("instrumented %s run: %d tasks on 20 4-core ndcrc workers, makespan %.0fs, utilization %.0f%%\n",
		out.Workload, out.TaskCount, float64(out.Makespan), 100*out.Utilization)
	if err := writeTo(promPath, func(f io.Writer) error { return reg.WritePrometheus(f) }); err != nil {
		return err
	}
	if timelinePath != "" {
		if err := writeTo(timelinePath, func(f io.Writer) error { return out.Sampler.WriteJSON(f) }); err != nil {
			return err
		}
	}
	return nil
}

// runTraced executes the same HEP benchmark point with span tracing enabled
// and writes the trace in the requested format.
func runTraced(seed int64, path, format string) error {
	if format != "json" && format != "perfetto" {
		return fmt.Errorf("unknown -trace-format %q (want json or perfetto)", format)
	}
	tr := &lfm.ExecutionTrace{}
	out, err := runHEP(seed, func(c *lfm.RunConfig) { c.Trace = tr })
	if err != nil {
		return err
	}
	// Status lines go to stderr when the trace itself goes to stdout.
	msg := io.Writer(os.Stdout)
	if path == "-" {
		msg = os.Stderr
	}
	st := tr.Store()
	fmt.Fprintf(msg, "traced %s run: %d tasks, makespan %.0fs, %d spans recorded\n",
		out.Workload, out.TaskCount, float64(out.Makespan), st.Len())
	if err := writeTo(path, func(f io.Writer) error {
		if format == "perfetto" {
			return st.WritePerfetto(f)
		}
		return st.WriteJSON(f)
	}); err != nil {
		return err
	}
	if format == "perfetto" {
		fmt.Fprintf(msg, "open the trace at https://ui.perfetto.dev (or chrome://tracing)\n")
	} else {
		fmt.Fprintf(msg, "analyze with: lfmtrace %s\n", path)
	}
	return nil
}

func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
