package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"lfm"
)

// telemetryPoint is one workload in the utilization sweep.
type telemetryPoint struct {
	name    string
	site    string
	workers int
	build   func(seed int64, scale int) *lfm.Workload
	tasks   int // per unit of scale
}

var telemetrySweepPoints = []telemetryPoint{
	{"hep", "ndcrc", 10, lfm.HEPWorkload, 100},
	{"drugscreen", "theta", 8, lfm.DrugScreenWorkload, 16},
	{"genomics", "aspire", 8, lfm.GenomicsWorkload, 16},
}

// runTelemetry executes telemetry-enabled runs and writes them as one
// JSONL export. Without -telemetry-sweep it records one HEP/auto run; with
// it, every paper workload under every strategy, followed by a waste table.
func runTelemetry(seed int64, quick, sweep bool, outPath string) error {
	type row struct {
		workload, strategy string
		util               lfm.TelemetryUtilization
		makespan           lfm.Time
		anomalies          int
	}
	var rows []row
	var recorded []*lfm.RunTelemetry

	record := func(p telemetryPoint, strategy string, scale int) error {
		w := p.build(seed, p.tasks*scale)
		s, err := lfm.StrategyFor(strategy, w)
		if err != nil {
			return err
		}
		out, err := lfm.RunWorkload(w, lfm.RunConfig{
			SiteName: p.site, Workers: p.workers, Seed: seed, NoBatchLatency: true,
			Strategy: s, Telemetry: lfm.DefaultTelemetryConfig(),
		})
		if err != nil {
			return err
		}
		rt := out.Telemetry
		recorded = append(recorded, rt)
		rows = append(rows, row{p.name, s.Name(), rt.Util, out.Makespan, len(rt.Anomalies)})
		return nil
	}

	if sweep {
		scale := 2
		if quick {
			scale = 1
		}
		for _, p := range telemetrySweepPoints {
			for _, strategy := range lfm.StrategyNames() {
				if err := record(p, strategy, scale); err != nil {
					return err
				}
			}
		}
	} else {
		if err := record(telemetrySweepPoints[0], "auto", 1); err != nil {
			return err
		}
	}

	if err := writeTo(outPath, func(f io.Writer) error {
		return lfm.WriteTelemetry(f, recorded)
	}); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tstrategy\tmakespan(s)\talloc-core-s\tused-core-s\twaste\tpacking\tanomalies")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.0f\t%.0f\t%.1f%%\t%.1f%%\t%d\n",
			r.workload, r.strategy, float64(r.makespan),
			r.util.AllocatedCoreSeconds, r.util.UsedCoreSeconds,
			100*r.util.WasteFraction, 100*r.util.PackingEfficiency, r.anomalies)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("telemetry for %d run(s) written to %s\n", len(recorded), outPath)
	return nil
}
