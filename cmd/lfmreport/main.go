// Command lfmreport renders a run's observations as a health report: the
// verdict and rule findings with their evidence windows, the queue-depth
// and utilization timelines as sparklines, and the run's scheduling and
// end-to-end latency quantiles per category. It reads either artifact the
// observability plane writes, dispatching on the format its header line
// declares: a run archive (`lfmscenario run NAME -archive FILE`), whose
// snapshot ring, final snapshot and summary health it renders, or an obs
// stream (ObsConfig.Stream), which keeps every snapshot boundary.
//
// Usage:
//
//	lfmreport [-json FILE] [-width N] [-allow-unhealthy] RUN.lfma|OBS.jsonl
//
// The file may be "-" for stdin. When a stream carries no health line (a
// bus closed without one), the health rules are re-run over the streamed
// snapshots; an artifact cut off before its footer (a truncated or live
// capture) is refused as corrupt. -json additionally re-exports the health
// report as JSON for machine consumption.
//
// Exit status: 0 healthy, 1 operational error (unreadable or corrupt
// artifact), 2 usage, 3 unhealthy verdict. -allow-unhealthy renders an
// unhealthy run without the nonzero exit, for exploratory use on runs that
// are expected to be degraded.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"lfm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lfmreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.String("json", "", "also write the health report as JSON to this file (- for stdout)")
	width := fs.Int("width", 60, "character width of the timeline sparklines")
	allowUnhealthy := fs.Bool("allow-unhealthy", false, "exit 0 even when the verdict is unhealthy")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: lfmreport [-json FILE] [-width N] [-allow-unhealthy] RUN.lfma|OBS.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil || fs.NArg() != 1 {
		if err == nil {
			fs.Usage()
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "lfmreport: %v\n", err)
		return 1
	}

	var data []byte
	var err error
	if path := fs.Arg(0); path == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return fail(err)
	}
	st, err := load(data)
	if err != nil {
		return fail(err)
	}
	health := st.Health
	if health == nil {
		health = lfm.AnalyzeObs(st.RunObs(), nil)
	}
	render(stdout, st, health, *width)

	if *jsonOut != "" {
		w := stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(health); err != nil {
			return fail(err)
		}
	}

	code := verdictExit(health, *allowUnhealthy)
	if code != 0 {
		fmt.Fprintf(stderr, "lfmreport: run is unhealthy (worst: %s); pass -allow-unhealthy to suppress\n", health.Worst())
	}
	return code
}

// load parses a run archive or an obs stream, dispatching on the format
// tag of the header line. An archive is rendered from its retained
// snapshot ring and final snapshot, with the health its summary carries.
func load(data []byte) (*lfm.ObsStream, error) {
	var first struct {
		Header struct {
			Format string `json:"format"`
		} `json:"header"`
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	// An unparsable first line is left to the stream reader to report.
	if json.Unmarshal(line, &first) != nil || first.Header.Format != lfm.RunArchiveFormat {
		return lfm.ReadObsStream(bytes.NewReader(data))
	}
	a, err := lfm.ReadRunArchive(data)
	if err != nil {
		return nil, err
	}
	if a.Obs == nil {
		return nil, errors.New("run archive carries no snapshot stream")
	}
	return &lfm.ObsStream{
		Meta: a.Obs.Meta, Cadence: a.Obs.Cadence,
		Snapshots: a.Obs.Snapshots, Final: a.Obs.Final,
		Health: a.Summary.Health,
	}, nil
}

// verdictExit maps the health verdict to the process exit code: 3 for an
// unhealthy run unless -allow-unhealthy downgrades it, 0 otherwise.
func verdictExit(health *lfm.RunHealth, allowUnhealthy bool) int {
	if health != nil && !health.Healthy && !allowUnhealthy {
		return 3
	}
	return 0
}

// render prints the report: header, verdict and findings, timelines,
// latency tables, and run counters.
func render(w io.Writer, st *lfm.ObsStream, health *lfm.RunHealth, width int) {
	m := st.Meta
	fin := st.Final
	if fin == nil && len(st.Snapshots) > 0 {
		fin = st.Snapshots[len(st.Snapshots)-1]
	}
	fmt.Fprintf(w, "=== %s / %s: %d workers, seed %d", orDash(m.Workload), orDash(m.Strategy), m.Workers, m.Seed)
	if fin != nil {
		fmt.Fprintf(w, ", makespan %.0fs", float64(fin.At))
	}
	fmt.Fprintf(w, " ===\n")

	verdict := "HEALTHY"
	if !health.Healthy {
		verdict = "UNHEALTHY (worst: " + health.Worst() + ")"
	}
	fmt.Fprintf(w, "\nverdict: %s — %d findings over %d snapshots at %.0fs cadence\n",
		verdict, len(health.Findings), health.Snapshots, float64(health.Cadence))
	if len(health.Findings) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "severity\trule\twindow\tdetail")
		for _, f := range health.Findings {
			window := "-"
			if f.WindowEnd > 0 {
				window = fmt.Sprintf("%.0fs-%.0fs", float64(f.WindowStart), float64(f.WindowEnd))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", f.Severity, f.Rule, window, f.Detail)
		}
		tw.Flush()
	}

	if len(st.Snapshots) > 1 {
		depths := make([]float64, len(st.Snapshots))
		utils := make([]float64, len(st.Snapshots))
		for i, s := range st.Snapshots {
			depths[i] = float64(s.QueueDepth)
			utils[i] = s.Utilization
		}
		peak := 0.0
		for _, d := range depths {
			if d > peak {
				peak = d
			}
		}
		// Compress the whole timeline into the display width (max per
		// bucket), so the sparkline spans the run rather than its tail.
		depths = bucketMax(depths, width)
		utils = bucketMax(utils, width)
		fmt.Fprintf(w, "\nqueue depth |%s| peak %.0f\n", lfm.Sparkline(depths, width), peak)
		fmt.Fprintf(w, "utilization |%s|", lfm.Sparkline(utils, width))
		if fin != nil {
			fmt.Fprintf(w, " final %.0f%%", 100*fin.Utilization)
		}
		fmt.Fprintln(w)
	}

	if fin != nil {
		if fin.SchedLatency.Count > 0 {
			fmt.Fprintln(w, "\nlatency quantiles (seconds; sched = submit→placement, e2e = submit→completion):")
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "scope\tsched n\tp50\tp99\tp999\te2e n\tp50\tp99\tp999")
			row := func(scope string, sched, e2e lfm.ObsLatencyQuantiles) {
				fmt.Fprintf(tw, "%s\t%d\t%.3g\t%.3g\t%.3g\t%d\t%.3g\t%.3g\t%.3g\n",
					scope, sched.Count, sched.P50, sched.P99, sched.P999,
					e2e.Count, e2e.P50, e2e.P99, e2e.P999)
			}
			row("pool", fin.SchedLatency, fin.E2ELatency)
			for _, c := range fin.Categories {
				row(c.Category, c.Sched, c.E2E)
			}
			tw.Flush()
		}
		fmt.Fprintf(w, "\ntasks: %d submitted, %d completed, %d failed, %d retries\n",
			fin.Submitted, fin.Completed, fin.Failed, fin.Retries)
		if fin.Offered > 0 {
			fmt.Fprintf(w, "serving: %d offered, %d shed, %d rejected, %d throttled, %d backpressured\n",
				fin.Offered, fin.Shed, fin.Rejected, fin.Throttled, fin.Backpressured)
		}
		fmt.Fprintf(w, "pool: %d workers alive, %d quarantined (%d trips), %.0f of %.0f cores allocated\n",
			fin.WorkersAlive, fin.WorkersQuarantined, fin.QuarantineTrips,
			fin.AllocatedCores, fin.PoolCores)
		if fin.ChaosInjected > 0 || fin.Anomalies > 0 {
			fmt.Fprintf(w, "chaos: %d faults injected, %d anomalies flagged\n",
				fin.ChaosInjected, fin.Anomalies)
		}
	}
}

// bucketMax compresses vals into at most width buckets, keeping each
// bucket's maximum (peaks must survive the compression).
func bucketMax(vals []float64, width int) []float64 {
	if width <= 0 || len(vals) <= width {
		return vals
	}
	out := make([]float64, width)
	for i, v := range vals {
		b := i * width / len(vals)
		if v > out[b] {
			out[b] = v
		}
	}
	return out
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
