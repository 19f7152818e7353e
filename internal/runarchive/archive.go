// Package runarchive owns the versioned run-archive container: a
// self-contained JSONL artifact capturing everything the differential
// observability layer (internal/diffobs, cmd/lfmdiff) needs to compare two
// runs without re-running either — the serializable scenario configuration
// and seed, the unified run summary (which carries the scheduler counters,
// waste roll-up, serving accounting, and health findings), the decimated
// obs snapshot stream, the telemetry category profiles, the critical-path
// bottleneck buckets, and optionally the flat scheduler event stream for
// first-divergence bisection. Archives are written by `lfmscenario run
// -archive` and `lfmdiff gate -refresh`, committed as baselines under
// baselines/, and read back standalone by `lfmdiff` and `lfmreport`.
//
// The container is framed by internal/artifact, like the scenario trace,
// the obs stream and the telemetry export (DESIGN.md §15): every line is
// one envelope object {"kind": "...", "<kind>": {...}}, the first line is
// the header and the last the footer, and every read failure is a typed
// *artifact.Error. This package keeps only its record table and its count
// checks. Output is byte-deterministic for a seed: the writer zeroes the
// scheduler wall-clock nanos (the only hardware-noise field) unless
// explicitly told to keep them, so two same-seed archives are
// byte-identical.
package runarchive

import (
	"bytes"

	"lfm/internal/artifact"
	"lfm/internal/core"
	"lfm/internal/obs"
	"lfm/internal/sim"
	"lfm/internal/trace"
	"lfm/internal/tseries"
	"lfm/internal/wq"
)

// Format, SchemaVersion, and ToolVersion identify the archive container.
// Bump SchemaVersion when the schema changes shape; never reuse a version.
// ToolVersion is stamped into headers so a reader can name the writer when
// rejecting or explaining an artifact.
const (
	Format        = "lfm-run-archive"
	SchemaVersion = 1
	ToolVersion   = "lfm-0.10"
)

// frame is the archive's framing; a final snapshot rides under the
// "snapshot" key.
var frame = artifact.Frame{
	Format: Format, Version: SchemaVersion,
	Fields: map[string]string{"final": "snapshot"},
}

// Header is the first line: the format tag, the writing tool, the run's
// identity, and the full serializable configuration that produced it.
type Header struct {
	artifact.Header
	Tool string `json:"tool"`
	// Scenario is the registry name of the archived scenario run, empty
	// when Build was given none.
	Scenario string `json:"scenario,omitempty"`
	// Workload is the generated workload's display name.
	Workload string `json:"workload"`
	// Seed echoes Config.Seed for greppability.
	Seed int64 `json:"seed"`
	// Config is the behavioural run configuration; two archives with equal
	// Configs and Seeds should be byte-identical (the determinism
	// contract), which is what first-divergence bisection exploits.
	Config core.ScenarioConfig `json:"config"`
	// Digest is the scenario outcome digest of the archived run, empty
	// when the writer had no task list to fingerprint.
	Digest string `json:"digest,omitempty"`
	// Makespan is the run's simulated duration.
	Makespan sim.Time `json:"makespan"`
}

// Footer closes the archive: expected line counts plus the digest echoed
// from the header, so truncation is always detectable.
type Footer struct {
	Snapshots int    `json:"snapshots"`
	Events    int    `json:"events"`
	Digest    string `json:"digest,omitempty"`
}

// obsInfo is the snapshot stream's envelope: RunObs minus the snapshots,
// which follow as their own lines.
type obsInfo struct {
	Meta       obs.StreamMeta `json:"meta"`
	Cadence    sim.Time       `json:"cadence"`
	Boundaries int            `json:"boundaries"`
	Stride     int            `json:"stride"`
}

// Archive is one parsed (or buildable) run archive.
type Archive struct {
	Header Header
	// Summary is the unified run summary: headline numbers, scheduler
	// counters (wall nanos zeroed), waste roll-up, serving accounting, and
	// health findings.
	Summary *core.RunSummary
	// Sched is the matching loop's work counters. ElapsedNanos is zero
	// unless the archive was written with KeepWall (which trades byte-
	// determinism for wall-clock visibility).
	Sched *wq.SchedStats
	// Obs is the retained snapshot ring plus the exact final snapshot;
	// nil when the archived run had no observability plane attached.
	Obs *obs.RunObs
	// Profiles are the telemetry layer's per-category usage profiles.
	Profiles []*tseries.ProfileSummary
	// Bottlenecks are the trace subsystem's per-category time buckets and
	// Phases the critical path's per-phase shares — the attribution inputs
	// the diff engine consults when a metric regresses.
	Bottlenecks []trace.Bucket
	Phases      []trace.PhaseShare
	// Events is the flat, time-ordered scheduler event stream, present
	// only when the archive was written with Events — the substrate of
	// first-divergence bisection.
	Events []wq.Event
}

// BuildOptions parameterize Build.
type BuildOptions struct {
	// Scenario names the archived scenario run.
	Scenario string
	// Digest is the run's outcome digest (scenario.OutcomeDigest).
	Digest string
	// Events includes the flat scheduler event stream, enabling
	// first-divergence bisection at the cost of archive size.
	Events bool
	// KeepWall preserves SchedStats.ElapsedNanos. Off by default: wall
	// nanos are hardware noise and would break the byte-determinism of
	// same-seed archives.
	KeepWall bool
}

// Build assembles an archive from a finished run. The outcome's trace
// (Outcome.Trace, attached via RunConfig.Trace) supplies the bottleneck
// buckets, critical-path phases, and — with opt.Events — the event stream;
// all three sections are simply absent on untraced runs.
func Build(out *core.Outcome, cfg core.ScenarioConfig, opt BuildOptions) *Archive {
	a := &Archive{
		Header: Header{
			Header: frame.Header(), Tool: ToolVersion,
			Scenario: opt.Scenario, Workload: out.Workload,
			Seed: cfg.Seed, Config: cfg,
			Digest: opt.Digest, Makespan: out.Makespan,
		},
		Summary: out.Summary(),
		Obs:     out.Obs,
	}
	if out.Sched != nil {
		sched := *out.Sched
		if !opt.KeepWall {
			sched.ElapsedNanos = 0
		}
		a.Sched = &sched
	}
	if out.Telemetry != nil {
		a.Profiles = out.Telemetry.Profiles
	}
	if out.Trace != nil {
		st := out.Trace.Store()
		a.Bottlenecks = st.Bottlenecks(false)
		if cp := st.CriticalPath(); cp != nil {
			a.Phases = cp.Phases
		}
		if opt.Events {
			a.Events = out.Trace.Events()
		}
	}
	return a
}

// Write serializes the archive as JSONL. Output is byte-deterministic for
// identical archives.
func Write(a *Archive) ([]byte, error) {
	var buf bytes.Buffer
	w := frame.NewWriter(&buf)
	hdr := a.Header
	if hdr.Format == "" {
		hdr.Format = Format
	}
	if hdr.Version == 0 {
		hdr.Version = SchemaVersion
	}
	w.Put("header", &hdr)
	if a.Summary != nil {
		w.Put("summary", a.Summary)
	}
	if a.Sched != nil {
		w.Put("sched", a.Sched)
	}
	snapshots := 0
	if a.Obs != nil {
		w.Put("obs", &obsInfo{
			Meta: a.Obs.Meta, Cadence: a.Obs.Cadence,
			Boundaries: a.Obs.Boundaries, Stride: a.Obs.Stride,
		})
		for _, s := range a.Obs.Snapshots {
			w.Put("snapshot", s)
		}
		snapshots = len(a.Obs.Snapshots)
		if a.Obs.Final != nil {
			w.Put("final", a.Obs.Final)
		}
	}
	for _, p := range a.Profiles {
		w.Put("profile", p)
	}
	for i := range a.Bottlenecks {
		w.Put("bottleneck", &a.Bottlenecks[i])
	}
	for i := range a.Phases {
		w.Put("phase", &a.Phases[i])
	}
	for i := range a.Events {
		w.Put("event", &a.Events[i])
	}
	w.Put("footer", &Footer{Snapshots: snapshots, Events: len(a.Events), Digest: hdr.Digest})
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Read parses and validates an archive; every failure is a typed
// *artifact.Error.
func Read(data []byte) (*Archive, error) {
	a := &Archive{}
	var oi *obsInfo
	var snaps []*obs.Snapshot
	var final *obs.Snapshot
	var footer Footer
	err := frame.Read(bytes.NewReader(data), &a.Header, map[string]artifact.Record{
		"summary":    artifact.Decode(func(s *core.RunSummary) { a.Summary = s }),
		"sched":      artifact.Decode(func(s *wq.SchedStats) { a.Sched = s }),
		"obs":        artifact.Decode(func(o *obsInfo) { oi = o }),
		"snapshot":   artifact.Decode(func(s *obs.Snapshot) { snaps = append(snaps, s) }),
		"final":      artifact.Decode(func(s *obs.Snapshot) { final = s }),
		"profile":    artifact.Decode(func(p *tseries.ProfileSummary) { a.Profiles = append(a.Profiles, p) }),
		"bottleneck": artifact.Decode(func(b trace.Bucket) { a.Bottlenecks = append(a.Bottlenecks, b) }),
		"phase":      artifact.Decode(func(p trace.PhaseShare) { a.Phases = append(a.Phases, p) }),
		"event":      artifact.Decode(func(e wq.Event) { a.Events = append(a.Events, e) }),
	}, &footer)
	if err != nil {
		return nil, err
	}
	corrupt := func(format string, args ...any) (*Archive, error) {
		return nil, frame.Errorf(artifact.Corrupt, 0, format, args...)
	}
	if len(snaps) != footer.Snapshots {
		return corrupt("%d snapshot lines, footer says %d", len(snaps), footer.Snapshots)
	}
	if len(a.Events) != footer.Events {
		return corrupt("%d event lines, footer says %d", len(a.Events), footer.Events)
	}
	if footer.Digest != a.Header.Digest {
		return corrupt("footer digest %q != header digest %q", footer.Digest, a.Header.Digest)
	}
	if a.Summary == nil {
		return corrupt("archive has no summary line")
	}
	if oi != nil {
		a.Obs = &obs.RunObs{
			Meta: oi.Meta, Cadence: oi.Cadence,
			Boundaries: oi.Boundaries, Stride: oi.Stride,
			Snapshots: snaps, Final: final,
		}
	} else if len(snaps) > 0 || final != nil {
		return corrupt("snapshot lines without an obs line")
	}
	return a, nil
}
