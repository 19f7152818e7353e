package obs

import (
	"io"

	"lfm/internal/artifact"
	"lfm/internal/metrics"
	"lfm/internal/sim"
)

// LatencyQuantiles summarizes one latency histogram at a boundary. Values
// are interpolated within fixed log-spaced buckets and clamped to the
// observed min/max, so they are deterministic for a given seed.
type LatencyQuantiles struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	P999  float64 `json:"p999,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// Summarize reads the standard quantile set off a histogram (the serving
// frontend summarizes its e2e histograms with it too).
func Summarize(h *metrics.Histogram) LatencyQuantiles {
	return LatencyQuantiles{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// CategoryLatency is one category's cumulative latency quantiles. Sched is
// submit→first-placement, E2E submit→successful-completion.
type CategoryLatency struct {
	Category string           `json:"category"`
	Sched    LatencyQuantiles `json:"sched"`
	E2E      LatencyQuantiles `json:"e2e"`
}

// SchedDelta counts matching-loop work between two built snapshots — the
// streaming view of wq.SchedStats.
type SchedDelta struct {
	Passes     int64 `json:"passes,omitempty"`
	Tasks      int64 `json:"tasks,omitempty"`
	Candidates int64 `json:"candidates,omitempty"`
	Wakes      int64 `json:"wakes,omitempty"`
}

// ChaosEvent is one recent fault injection on the snapshot ticker.
type ChaosEvent struct {
	At   sim.Time `json:"at"`
	Kind string   `json:"kind"`
}

// Snapshot is the run's state sealed at one cadence boundary. Counts are
// instantaneous levels unless named otherwise; Submitted/Completed/Failed/
// Retries/QuarantineTrips/ChaosInjected/Anomalies and the latency
// quantiles are cumulative since the run started. Blocked is the subset of
// QueueDepth parked behind unfinished category strategies.
type Snapshot struct {
	// Seq is the boundary index (At == Seq × cadence, except the final
	// snapshot, sealed at the makespan).
	Seq int      `json:"seq"`
	At  sim.Time `json:"at"`

	QueueDepth  int `json:"queue_depth"`
	Blocked     int `json:"blocked,omitempty"`
	Running     int `json:"running"`
	Speculating int `json:"speculating,omitempty"`

	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed,omitempty"`
	Retries   int `json:"retries,omitempty"`

	WorkersAlive       int `json:"workers_alive"`
	WorkersQuarantined int `json:"workers_quarantined,omitempty"`
	QuarantineTrips    int `json:"quarantine_trips,omitempty"`

	PoolCores      float64 `json:"pool_cores"`
	AllocatedCores float64 `json:"allocated_cores"`
	// Utilization is AllocatedCores/PoolCores at this instant (0 with an
	// empty pool).
	Utilization float64 `json:"utilization"`

	// Sched is the matching work done since the previous built snapshot.
	Sched SchedDelta `json:"sched,omitempty"`

	ChaosInjected int          `json:"chaos_injected,omitempty"`
	Events        []ChaosEvent `json:"events,omitempty"`
	Anomalies     int          `json:"anomalies,omitempty"`

	// Serving-frontend counters (cumulative), read from internal/serve when
	// RunConfig.Serving is set; all zero — and omitted from the JSON, so
	// serving-off streams stay byte-identical — otherwise. Accepted tasks
	// are exactly Submitted.
	Offered       int `json:"offered,omitempty"`
	Shed          int `json:"shed,omitempty"`
	Rejected      int `json:"rejected,omitempty"`
	Throttled     int `json:"throttled,omitempty"`
	Backpressured int `json:"backpressured,omitempty"`

	SchedLatency LatencyQuantiles  `json:"sched_latency"`
	E2ELatency   LatencyQuantiles  `json:"e2e_latency"`
	Categories   []CategoryLatency `json:"categories,omitempty"`
}

// RunObs is everything the bus retained for one run: the decimated
// snapshot ring spanning the whole timeline plus the exact final snapshot
// at the makespan.
type RunObs struct {
	Meta    StreamMeta `json:"meta"`
	Cadence sim.Time   `json:"cadence"`
	// Boundaries counts every sealed boundary; Stride is the ring's final
	// retention stride (1 means nothing was decimated).
	Boundaries int         `json:"boundaries"`
	Stride     int         `json:"stride"`
	Snapshots  []*Snapshot `json:"snapshots,omitempty"`
	Final      *Snapshot   `json:"final"`
}

// StreamFormat and StreamVersion identify the obs stream container, framed
// by internal/artifact. Version 2 moved the stream onto the shared framing;
// earlier streams fail to read as bad-format.
const (
	StreamFormat  = "lfm-obs-stream"
	StreamVersion = 2
)

var streamFrame = artifact.Frame{Format: StreamFormat, Version: StreamVersion}

// streamHeader is the stream's first line: the run's identity and the
// bus's cadence and ring bound.
type streamHeader struct {
	artifact.Header
	StreamMeta
	Cadence sim.Time `json:"cadence"`
	RingCap int      `json:"ring_cap"`
}

// streamFooter closes the stream with its snapshot count.
type streamFooter struct {
	Snapshots int `json:"snapshots"`
}

// Stream is a parsed obs stream.
type Stream struct {
	Meta      StreamMeta
	Cadence   sim.Time
	RingCap   int
	Snapshots []*Snapshot
	Final     *Snapshot
	Health    *Health
}

// RunObs reassembles the stream into the in-memory form Analyze consumes.
// A streamed run carries every boundary, so Stride is 1.
func (s *Stream) RunObs() *RunObs {
	ro := &RunObs{
		Meta: s.Meta, Cadence: s.Cadence,
		Boundaries: len(s.Snapshots), Stride: 1,
		Snapshots: s.Snapshots, Final: s.Final,
	}
	if ro.Final == nil && len(s.Snapshots) > 0 {
		ro.Final = s.Snapshots[len(s.Snapshots)-1]
	}
	return ro
}

// ReadStream parses one obs stream; every failure is a typed
// *artifact.Error.
func ReadStream(r io.Reader) (*Stream, error) {
	st := &Stream{}
	var h streamHeader
	var f streamFooter
	err := streamFrame.Read(r, &h, map[string]artifact.Record{
		"snapshot": artifact.Decode(func(s *Snapshot) { st.Snapshots = append(st.Snapshots, s) }),
		"final":    artifact.Decode(func(s *Snapshot) { st.Final = s }),
		"health":   artifact.Decode(func(hl *Health) { st.Health = hl }),
	}, &f)
	if err != nil {
		return nil, err
	}
	if len(st.Snapshots) != f.Snapshots {
		return nil, streamFrame.Errorf(artifact.Corrupt, 0, "%d snapshot lines, footer says %d", len(st.Snapshots), f.Snapshots)
	}
	st.Meta, st.Cadence, st.RingCap = h.StreamMeta, h.Cadence, h.RingCap
	return st, nil
}

// WriteStream writes a parsed stream back out in the layout the bus
// streams; ReadStream of the result reproduces st.
func WriteStream(w io.Writer, st *Stream) error {
	out := openStream(w, st.Meta, st.Cadence, st.RingCap)
	for _, s := range st.Snapshots {
		out.Put("snapshot", s)
	}
	if st.Final != nil {
		out.Put("final", st.Final)
	}
	return closeStream(out, st.Health, len(st.Snapshots))
}

// openStream starts a stream with its header line.
func openStream(w io.Writer, meta StreamMeta, cadence sim.Time, ringCap int) *artifact.Writer {
	out := streamFrame.NewWriter(w)
	out.Put("header", &streamHeader{
		Header: streamFrame.Header(), StreamMeta: meta,
		Cadence: cadence, RingCap: ringCap,
	})
	return out
}

// closeStream ends a stream: the health line, if any, then the footer.
func closeStream(out *artifact.Writer, h *Health, snapshots int) error {
	if h != nil {
		out.Put("health", h)
	}
	out.Put("footer", &streamFooter{Snapshots: snapshots})
	return out.Flush()
}
