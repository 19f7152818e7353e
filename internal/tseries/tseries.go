// Package tseries is the resource time-series layer of the observability
// surface: where metrics (aggregate instruments) and trace (causal spans)
// answer "how much" and "why", tseries answers "when" — what every monitored
// attempt's usage looked like over its lifetime, what each node's
// allocated-vs-used balance looked like over the run, and which categories'
// labels actually cover the distributions they were learned from.
//
// Every monitor measurement (poll, fork/exit event, final) streams into a
// bounded per-attempt Series; memory is provably bounded by a point cap with
// deterministic 2x downsampling (adjacent points merge under componentwise
// max, so the exact observed peak always survives, at the price of a coarser
// timeline). Three products derive from the stream:
//
//   - per-category usage profiles (percentiles of peaks, time-to-peak, and
//     mean-vs-peak shape) with an audit of the allocation strategy's current
//     label against the observed peak distribution;
//   - a cluster utilization timeline (allocated and measured-used resources
//     per node over time, with exact core-second integrals and a
//     waste/packing summary);
//   - an online anomaly detector flagging monotone memory growth (leaks) and
//     usage flatlines (stragglers), surfaced as trace.KindAnomaly spans and
//     consumable by the scheduler's speculation machinery.
//
// Recording is strictly passive: the collector never schedules simulation
// events, so a telemetry-enabled run places and traces identically to a bare
// one (the speculation flatline trigger is the one documented, opt-in
// exception). All recording entry points are nil-receiver-safe.
package tseries

import (
	"fmt"

	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// Source flags name what triggered a measurement; points carry the OR of the
// sources merged into them.
const (
	SrcPoll  uint8 = 1 << iota // periodic /proc-style poll
	SrcEvent                   // fork/exit process event
	SrcFinal                   // final measurement at completion
)

// Config parameterizes the telemetry subsystem. The zero value is usable;
// DefaultConfig fills the documented defaults explicitly.
type Config struct {
	// SeriesCap bounds the points retained per attempt series. When a series
	// fills the cap, adjacent points merge pairwise (componentwise max) and
	// the sampling stride doubles, so memory stays O(cap) no matter how long
	// the attempt runs. Default 512.
	SeriesCap int
	// NodeSeriesCap bounds each node's allocated/used timeline the same way.
	// Default SeriesCap.
	NodeSeriesCap int
	// ProfileWindow bounds the per-category samples (peak, time-to-peak,
	// shape) retained for percentile profiles. Default 1024.
	ProfileWindow int
	// Anomalies tunes the online anomaly detector.
	Anomalies AnomalyConfig
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() *Config {
	c := &Config{}
	c.fillDefaults()
	return c
}

func (c *Config) fillDefaults() {
	if c.SeriesCap <= 0 {
		c.SeriesCap = 512
	}
	if c.SeriesCap < 8 {
		c.SeriesCap = 8
	}
	if c.NodeSeriesCap <= 0 {
		c.NodeSeriesCap = c.SeriesCap
	}
	if c.ProfileWindow <= 0 {
		c.ProfileWindow = 1024
	}
	c.Anomalies.fillDefaults()
}

// Point is one retained entry of a bounded series. U is the componentwise
// maximum over the N raw measurements merged into the point, DT the offset
// from the previous point (from the series start for the first), and Src the
// OR of the merged measurements' source flags.
type Point struct {
	DT  sim.Time          `json:"dt"`
	U   monitor.Resources `json:"u"`
	N   int               `json:"n"`
	Src uint8             `json:"src,omitempty"`
}

// Series is a bounded, delta-encoded resource usage timeline. Measurements
// append in time order; past the cap the series decimates deterministically —
// the stride doubles and adjacent points merge under componentwise max —
// so the exact peak is always preserved while memory stays bounded.
// The zero value is unusable; construct with NewSeries.
type Series struct {
	cap    int
	stride int
	pts    []Point

	started bool
	start   sim.Time // time of the first measurement
	lastAt  sim.Time // absolute time of the last flushed point

	// Accumulating bucket: up to stride raw samples merge into one point.
	bkt   Point
	bktAt sim.Time // absolute time of the bucket's last raw sample

	raw  int
	peak monitor.Resources
}

// NewSeries returns an empty series bounded to cap points (minimum 8).
func NewSeries(cap int) *Series {
	if cap < 8 {
		cap = 8
	}
	return &Series{cap: cap, stride: 1}
}

// reset empties the series for reuse, keeping its point buffer.
func (s *Series) reset() {
	*s = Series{cap: s.cap, stride: 1, pts: s.pts[:0]}
}

// Add appends one measurement. Timestamps must be non-decreasing.
func (s *Series) Add(at sim.Time, u monitor.Resources, src uint8) {
	if !s.started {
		s.started = true
		s.start = at
		s.lastAt = at
	}
	s.raw++
	s.peak = s.peak.Max(u)
	if s.bkt.N == 0 {
		s.bkt = Point{U: u, N: 1, Src: src}
	} else {
		s.bkt.U = s.bkt.U.Max(u)
		s.bkt.N++
		s.bkt.Src |= src
	}
	s.bktAt = at
	if s.bkt.N >= s.stride {
		s.flush()
	}
}

// flush turns the accumulating bucket into a retained point and decimates
// when the cap is reached.
func (s *Series) flush() {
	p := s.bkt
	p.DT = s.bktAt - s.lastAt
	s.lastAt = s.bktAt
	s.pts = append(s.pts, p)
	s.bkt = Point{}
	if len(s.pts) >= s.cap {
		s.decimate()
	}
}

// decimate merges adjacent point pairs under componentwise max and doubles
// the stride. Deterministic: depends only on the sequence of Add calls.
func (s *Series) decimate() {
	out := s.pts[:0]
	for i := 0; i+1 < len(s.pts); i += 2 {
		a, b := s.pts[i], s.pts[i+1]
		out = append(out, Point{
			DT: a.DT + b.DT, U: a.U.Max(b.U), N: a.N + b.N, Src: a.Src | b.Src,
		})
	}
	if len(s.pts)%2 == 1 {
		out = append(out, s.pts[len(s.pts)-1])
	}
	s.pts = out
	s.stride *= 2
}

// Points returns the retained points, including any partially-filled bucket,
// as a copy safe to hold.
func (s *Series) Points() []Point {
	out := make([]Point, 0, len(s.pts)+1)
	out = append(out, s.pts...)
	if s.bkt.N > 0 {
		p := s.bkt
		p.DT = s.bktAt - s.lastAt
		out = append(out, p)
	}
	return out
}

// Len reports the retained point count (pending bucket included).
func (s *Series) Len() int {
	n := len(s.pts)
	if s.bkt.N > 0 {
		n++
	}
	return n
}

// Cap reports the configured point bound.
func (s *Series) Cap() int { return s.cap }

// Raw reports how many measurements were streamed in.
func (s *Series) Raw() int { return s.raw }

// Stride reports the current decimation stride (1 until the first cap hit,
// then doubling).
func (s *Series) Stride() int { return s.stride }

// Start reports the time of the first measurement.
func (s *Series) Start() sim.Time { return s.start }

// Peak reports the exact componentwise maximum over every raw measurement —
// never degraded by downsampling.
func (s *Series) Peak() monitor.Resources { return s.peak }

// CheckInvariants verifies the properties the telemetry layer guarantees:
// point count within the cap, non-negative (monotone) deltas, merged counts
// adding up to the raw measurement count, and the downsampled series still
// bracketing the exact peak componentwise.
func (s *Series) CheckInvariants() error {
	pts := s.Points()
	if len(pts) > s.cap {
		return fmt.Errorf("tseries: %d points exceed cap %d", len(pts), s.cap)
	}
	var merged int
	var max monitor.Resources
	for i, p := range pts {
		if p.DT < 0 {
			return fmt.Errorf("tseries: point %d has negative delta %v", i, p.DT)
		}
		if p.N <= 0 {
			return fmt.Errorf("tseries: point %d merged %d measurements", i, p.N)
		}
		merged += p.N
		max = max.Max(p.U)
	}
	if merged != s.raw {
		return fmt.Errorf("tseries: points account %d of %d raw measurements", merged, s.raw)
	}
	if s.raw > 0 && max != s.peak {
		return fmt.Errorf("tseries: downsampled max %v lost the exact peak %v", max, s.peak)
	}
	return nil
}
