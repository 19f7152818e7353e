package tseries

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// RunMeta identifies one run in an export.
type RunMeta struct {
	Workload string   `json:"workload,omitempty"`
	Strategy string   `json:"strategy,omitempty"`
	Workers  int      `json:"workers,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	Makespan sim.Time `json:"makespan"`
}

// AttemptSummary is one recorded attempt: identity, outcome, and its bounded
// usage series.
type AttemptSummary struct {
	Task        int               `json:"task"`
	Attempt     int               `json:"attempt"`
	Speculative bool              `json:"speculative,omitempty"`
	Category    string            `json:"category,omitempty"`
	Node        int               `json:"node"`
	Outcome     string            `json:"outcome"`
	Start       sim.Time          `json:"start"`
	End         sim.Time          `json:"end"`
	Requested   monitor.Resources `json:"requested"`
	// Peak is the exact componentwise maximum over every raw measurement
	// (never degraded by downsampling).
	Peak monitor.Resources `json:"peak"`
	// RawMeasurements counts measurements streamed in; Stride is the final
	// decimation stride (1 means the series never hit its cap).
	RawMeasurements int `json:"raw_measurements"`
	Stride          int `json:"stride"`
	// Series is the bounded, delta-encoded usage timeline.
	Series []Point `json:"series"`
}

// RunTelemetry is everything the collector recorded for one run.
type RunTelemetry struct {
	Meta RunMeta `json:"meta"`
	// SeriesCap is the per-series point bound the run was recorded under.
	SeriesCap int                `json:"series_cap"`
	Profiles  []*ProfileSummary  `json:"profiles,omitempty"`
	Nodes     []*NodeSummary     `json:"nodes,omitempty"`
	Attempts  []AttemptSummary   `json:"attempts,omitempty"`
	Anomalies []Anomaly          `json:"anomalies,omitempty"`
	Util      UtilizationSummary `json:"util"`
}

// CheckInvariants verifies the telemetry guarantees on an exported run:
// every attempt series within the point cap, monotone (non-negative) deltas,
// merged counts summing to the raw measurement count, and the downsampled
// series still bracketing the exact peak; node timelines monotone and
// bounded too.
func (rt *RunTelemetry) CheckInvariants() error {
	if rt == nil {
		return fmt.Errorf("tseries: nil telemetry")
	}
	for _, a := range rt.Attempts {
		if err := checkPoints(a.Series, rt.SeriesCap, a.RawMeasurements, &a.Peak); err != nil {
			return fmt.Errorf("attempt %d.%d: %w", a.Task, a.Attempt, err)
		}
	}
	for _, n := range rt.Nodes {
		if err := checkPoints(n.Alloc, 0, -1, nil); err != nil {
			return fmt.Errorf("node %d alloc: %w", n.Node, err)
		}
		if err := checkPoints(n.Used, 0, -1, nil); err != nil {
			return fmt.Errorf("node %d used: %w", n.Node, err)
		}
		if n.UsedCoreSeconds < -1e-6 || n.AllocatedCoreSeconds < -1e-6 {
			return fmt.Errorf("node %d: negative integral", n.Node)
		}
	}
	return nil
}

// checkPoints validates one exported series. cap 0 skips the bound check,
// raw -1 the count check, a nil peak the peak check.
func checkPoints(pts []Point, cap, raw int, peak *monitor.Resources) error {
	if cap > 0 && len(pts) > cap {
		return fmt.Errorf("%d points exceed cap %d", len(pts), cap)
	}
	var merged int
	var max monitor.Resources
	for i, p := range pts {
		if p.DT < 0 {
			return fmt.Errorf("point %d has negative delta %v", i, p.DT)
		}
		if p.N <= 0 {
			return fmt.Errorf("point %d merged %d measurements", i, p.N)
		}
		merged += p.N
		max = max.Max(p.U)
	}
	if raw >= 0 && merged != raw {
		return fmt.Errorf("points account %d of %d raw measurements", merged, raw)
	}
	if peak != nil && len(pts) > 0 && max != *peak {
		return fmt.Errorf("downsampled max %v lost the exact peak %v", max, *peak)
	}
	return nil
}

// jsonlLine is the envelope of one exported JSONL line. Type is one of
// "meta", "profile", "node", "attempt", "anomaly", "util"; exactly one other
// field is set accordingly. A run is a "meta" line followed by its records;
// files concatenate runs.
type jsonlLine struct {
	Type    string              `json:"type"`
	Meta    *metaLine           `json:"meta,omitempty"`
	Profile *ProfileSummary     `json:"profile,omitempty"`
	Node    *NodeSummary        `json:"node,omitempty"`
	Attempt *AttemptSummary     `json:"attempt,omitempty"`
	Anomaly *Anomaly            `json:"anomaly,omitempty"`
	Util    *UtilizationSummary `json:"util,omitempty"`
}

// ExportVersion is the telemetry JSONL schema version, stamped on every
// run's meta line. Readers accept any version up to it (absent means 0,
// the pre-versioning format) and refuse newer exports with a typed
// *ExportVersionError.
const ExportVersion = 1

// ExportVersionError reports an export written by a newer schema than this
// reader understands.
type ExportVersionError struct {
	Version int
}

func (e *ExportVersionError) Error() string {
	return fmt.Sprintf("tseries: export schema version %d, reader supports <= %d", e.Version, ExportVersion)
}

type metaLine struct {
	SchemaVersion int `json:"schema_version"`
	RunMeta
	SeriesCap int `json:"series_cap"`
}

// WriteJSONL streams the run as line-delimited JSON: one meta line, then one
// line per profile/node/attempt/anomaly, then the utilization summary.
// Output is byte-deterministic for identical telemetry.
func (rt *RunTelemetry) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	put := func(l jsonlLine) error { return enc.Encode(l) }
	if err := put(jsonlLine{Type: "meta", Meta: &metaLine{SchemaVersion: ExportVersion, RunMeta: rt.Meta, SeriesCap: rt.SeriesCap}}); err != nil {
		return err
	}
	for _, p := range rt.Profiles {
		if err := put(jsonlLine{Type: "profile", Profile: p}); err != nil {
			return err
		}
	}
	for _, n := range rt.Nodes {
		if err := put(jsonlLine{Type: "node", Node: n}); err != nil {
			return err
		}
	}
	for i := range rt.Attempts {
		if err := put(jsonlLine{Type: "attempt", Attempt: &rt.Attempts[i]}); err != nil {
			return err
		}
	}
	for i := range rt.Anomalies {
		if err := put(jsonlLine{Type: "anomaly", Anomaly: &rt.Anomalies[i]}); err != nil {
			return err
		}
	}
	if err := put(jsonlLine{Type: "util", Util: &rt.Util}); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadJSONL parses a (possibly multi-run) JSONL telemetry stream back into
// runs. Unknown line types are skipped, so the format can grow.
func ReadJSONL(r io.Reader) ([]*RunTelemetry, error) {
	var runs []*RunTelemetry
	var cur *RunTelemetry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var l jsonlLine
		if err := json.Unmarshal(b, &l); err != nil {
			return nil, fmt.Errorf("tseries: line %d: %w", lineNo, err)
		}
		if l.Type == "meta" {
			if l.Meta != nil && l.Meta.SchemaVersion > ExportVersion {
				return nil, &ExportVersionError{Version: l.Meta.SchemaVersion}
			}
			cur = &RunTelemetry{}
			if l.Meta != nil {
				cur.Meta = l.Meta.RunMeta
				cur.SeriesCap = l.Meta.SeriesCap
			}
			runs = append(runs, cur)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("tseries: line %d: %q record before any meta line", lineNo, l.Type)
		}
		switch l.Type {
		case "profile":
			if l.Profile != nil {
				cur.Profiles = append(cur.Profiles, l.Profile)
			}
		case "node":
			if l.Node != nil {
				cur.Nodes = append(cur.Nodes, l.Node)
			}
		case "attempt":
			if l.Attempt != nil {
				cur.Attempts = append(cur.Attempts, *l.Attempt)
			}
		case "anomaly":
			if l.Anomaly != nil {
				cur.Anomalies = append(cur.Anomalies, *l.Anomaly)
			}
		case "util":
			if l.Util != nil {
				cur.Util = *l.Util
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return runs, nil
}

// WriteSeriesCSV exports every attempt's series as flat CSV rows
// (task, attempt, category, node, t, cores, mem_mb, disk_mb, merged, src)
// with absolute timestamps reconstructed from the deltas — the
// spreadsheet-friendly view of the same data.
func (rt *RunTelemetry) WriteSeriesCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "task,attempt,category,node,t,cores,mem_mb,disk_mb,merged,src"); err != nil {
		return err
	}
	for _, a := range rt.Attempts {
		t := a.Start
		for _, p := range a.Series {
			t += p.DT
			if _, err := fmt.Fprintf(bw, "%d,%d,%s,%d,%g,%g,%g,%g,%d,%d\n",
				a.Task, a.Attempt, a.Category, a.Node,
				float64(t), p.U.Cores, p.U.MemoryMB, p.U.DiskMB, p.N, p.Src); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
