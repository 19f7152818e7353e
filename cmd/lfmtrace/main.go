// Command lfmtrace answers "why was my workflow slow?" from a saved span
// trace (lfmbench -trace-out run.trace.json, or TraceStore.WriteJSON from
// library code).
//
// Usage:
//
//	lfmtrace [-top N] [-perfetto FILE] TRACE
//
// It prints the run's critical path (the contiguous chain of task phases
// that determined the makespan) with a per-phase time breakdown, bottleneck
// tables by task category and by worker, and the top-N slowest spans.
// -perfetto additionally re-exports the trace as Chrome trace-event JSON for
// https://ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"lfm"
)

func main() {
	top := flag.Int("top", 10, "number of slowest spans to list")
	perfetto := flag.String("perfetto", "", "also write the trace as Chrome trace-event JSON to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lfmtrace [-top N] [-perfetto FILE] TRACE\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	st, err := lfm.ReadTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	report(os.Stdout, st, *top)

	if *perfetto != "" {
		out, err := os.Create(*perfetto)
		if err != nil {
			fatal(err)
		}
		if err := st.WritePerfetto(out); err != nil {
			out.Close()
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nperfetto export written to %s (open at https://ui.perfetto.dev)\n", *perfetto)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lfmtrace: %v\n", err)
	os.Exit(1)
}

// report writes the analysis of st to out.
func report(out io.Writer, st *lfm.TraceStore, top int) {
	fmt.Fprintf(out, "trace: %d spans, end of run at %.3fs\n", st.Len(), float64(st.EndTime()))

	cp := st.CriticalPath()
	if cp == nil {
		fmt.Fprintln(out, "no task spans recorded; nothing to analyze")
		return
	}
	fmt.Fprintf(out, "\ncritical path: %.3fs, [%.3fs, %.3fs], %d steps across %d tasks\n",
		float64(cp.Total()), float64(cp.Start), float64(cp.End), len(cp.Steps), pathTasks(cp))
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  phase\ttime\tshare")
	for _, p := range cp.Phases {
		fmt.Fprintf(w, "  %s\t%.3fs\t%.1f%%\n", p.Kind, float64(p.Duration), 100*p.Fraction)
	}
	w.Flush()
	fmt.Fprintln(out, "\npath steps:")
	w = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  task\tcategory\tphase\tstart\tduration\tworker")
	for _, sp := range cp.Steps {
		worker := "-"
		if sp.Worker >= 0 {
			worker = fmt.Sprintf("%d", sp.Worker)
		}
		fmt.Fprintf(w, "  %d\t%s\t%s\t%.3fs\t%.3fs\t%s\n",
			sp.Task, sp.Category, sp.Kind, float64(sp.Start), float64(sp.Duration(cp.End)), worker)
	}
	w.Flush()

	buckets(out, st, false, "bottlenecks by category:")
	buckets(out, st, true, "bottlenecks by worker:")
	chaosSection(out, st, cp)

	slow := st.Slowest(top)
	if len(slow) > 0 {
		fmt.Fprintf(out, "\ntop %d slowest spans:\n", len(slow))
		w = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  kind\ttask\tcategory\tstart\tduration\toutcome\tdetail")
		end := st.EndTime()
		for _, sp := range slow {
			fmt.Fprintf(w, "  %s\t%d\t%s\t%.3fs\t%.3fs\t%s\t%s\n",
				sp.Kind, sp.Task, sp.Category, float64(sp.Start), float64(sp.Duration(end)), sp.Outcome, sp.Detail)
		}
		w.Flush()
	}
}

// chaosSection lists injected faults and failure-detection events, flagging
// those whose window overlaps the critical path — the faults that plausibly
// cost makespan.
func chaosSection(out io.Writer, st *lfm.TraceStore, cp *lfm.TraceCriticalPath) {
	var evs []lfm.TraceSpan
	for _, sp := range st.Spans() {
		switch sp.Kind {
		case lfm.TraceKindChaos, lfm.TraceKindSuspect, lfm.TraceKindQuarantine,
			lfm.TraceKindKill, lfm.TraceKindAnomaly:
			evs = append(evs, sp)
		}
	}
	if len(evs) == 0 {
		return
	}
	end := st.EndTime()
	fmt.Fprintf(out, "\nfailure events (%d):\n", len(evs))
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  kind\tstart\tduration\tworker\tdetail\ton critical path")
	onPath := 0
	for _, sp := range evs {
		d := sp.Duration(end)
		worker := "-"
		if sp.Worker >= 0 {
			worker = fmt.Sprintf("%d", sp.Worker)
		}
		// A fault overlaps the path if its [start, start+d] window
		// intersects the path's interval.
		overlap := sp.Start <= cp.End && sp.Start+d >= cp.Start
		mark := ""
		if overlap {
			mark = "yes"
			onPath++
		}
		fmt.Fprintf(w, "  %s\t%.3fs\t%.3fs\t%s\t%s\t%s\n",
			sp.Kind, float64(sp.Start), float64(d), worker, sp.Detail, mark)
	}
	w.Flush()
	fmt.Fprintf(out, "  %d of %d overlap the critical path window\n", onPath, len(evs))
}

// pathTasks counts distinct tasks on the critical path.
func pathTasks(cp *lfm.TraceCriticalPath) int {
	seen := map[int]bool{}
	for _, sp := range cp.Steps {
		seen[sp.Task] = true
	}
	return len(seen)
}

func buckets(out io.Writer, st *lfm.TraceStore, byWorker bool, title string) {
	bs := st.Bottlenecks(byWorker)
	if len(bs) == 0 {
		return
	}
	fmt.Fprintf(out, "\n%s\n", title)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  group\ttotal\tdep-wait\tqueue\tstage\texec\toutput\twaste\tattempts\twasted")
	for _, b := range bs {
		fmt.Fprintf(w, "  %s\t%.1fs\t%.1fs\t%.1fs\t%.1fs\t%.1fs\t%.1fs\t%.1fs\t%d\t%d\n",
			b.Group, float64(b.Total()), float64(b.DepWait), float64(b.Queue),
			float64(b.Stage), float64(b.Exec), float64(b.Output), float64(b.Waste),
			b.Attempts, b.Wasted)
	}
	w.Flush()
}
