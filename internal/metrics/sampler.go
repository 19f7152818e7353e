package metrics

import (
	"math"

	"lfm/internal/sim"
)

// Point is one sampled value.
type Point struct {
	At sim.Time
	V  float64
}

// TimeSeries is the sampled history of one counter or gauge.
type TimeSeries struct {
	Name   string
	Labels []Label
	Kind   string // "counter" or "gauge"
	Points []Point
}

// Label returns the value of one label key, or "".
func (ts *TimeSeries) Label(key string) string {
	for _, l := range ts.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Sampler snapshots every counter and gauge of a registry at a fixed
// simulated-clock resolution — the 1-second collection loop of a
// fine-grained monitoring agent, driven by the simulation clock so that
// timelines are exactly reproducible. Histograms are not sampled (they are
// cumulative and exported whole); counters are sampled cumulatively so
// consumers can derive rates by differencing.
//
// Sampling is passive: the sampler rides the engine's clock boundaries
// (sim.Engine.Every) and schedules no event, so an instrumented run
// places and ends exactly as a bare one. Each sample at grid
// point B reads the state after every event at or before B, and the run's
// final time gets one last sample when the simulation drains.
type Sampler struct {
	eng *sim.Engine
	reg *Registry
	res sim.Time

	series map[string]*TimeSeries
	order  []*TimeSeries
	// byPos holds the series of reg.order[i] at index i (nil for
	// histograms and for series removed before their first sample), so a
	// sweep follows one pointer per instrument. The registry only appends
	// to its order, which keeps the positions stable.
	byPos  []*TimeSeries
	ticker *sim.Ticker // nil while stopped
	last   sim.Time    // time of the latest sample

	// Samples counts completed sampling sweeps.
	Samples int
}

// NewSampler returns a sampler over reg at the given resolution.
// Non-positive and non-finite resolutions fall back to the 1s default, so
// a sampler can never hand the engine an unusable period; callers wanting
// a hard error should validate the resolution up front (core.Run does).
func NewSampler(eng *sim.Engine, reg *Registry, resolution sim.Time) *Sampler {
	if f := float64(resolution); resolution <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		resolution = sim.Second
	}
	return &Sampler{eng: eng, reg: reg, res: resolution, series: make(map[string]*TimeSeries)}
}

// Resolution reports the sampling period.
func (s *Sampler) Resolution() sim.Time { return s.res }

// Start takes an immediate sample and attaches the sampler to the clock
// grid. Starting a running sampler is a no-op.
func (s *Sampler) Start() {
	if s.ticker != nil {
		return
	}
	s.Sample()
	s.ticker = s.eng.Every(s.res, s.boundary)
}

// Stop detaches periodic collection; Start resumes it.
func (s *Sampler) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

// boundary samples at a clock boundary unless that instant is already
// sampled (Start's own sample, taken mid-round, keeps its place).
func (s *Sampler) boundary(at sim.Time) {
	if at > s.last {
		s.sampleAt(at)
	}
}

// Sample takes one sweep over the registry's counters and gauges now. It can
// also be called manually (e.g. to snapshot at a known interesting instant).
func (s *Sampler) Sample() { s.sampleAt(s.eng.Now()) }

// sampleAt sweeps the registry, stamping every point with `at`.
func (s *Sampler) sampleAt(at sim.Time) {
	for i := len(s.byPos); i < len(s.reg.order); i++ {
		s.byPos = append(s.byPos, s.resolve(s.reg.order[i]))
	}
	for i, ins := range s.reg.order {
		ts := s.byPos[i]
		if ts == nil || ins.removed {
			continue
		}
		var v float64
		if ins.kind == kindCounter {
			v = ins.counter.Value()
		} else {
			v = ins.gauge.Value()
		}
		ts.Points = append(ts.Points, Point{At: at, V: v})
	}
	s.last = at
	s.Samples++
}

// resolve returns the series a newly registered counter or gauge samples
// into, creating it on first sight of the series ID. A series unregistered
// and registered again under the same ID resumes its old history.
func (s *Sampler) resolve(ins *instrument) *TimeSeries {
	if ins.removed || (ins.kind != kindCounter && ins.kind != kindGauge) {
		return nil
	}
	ts := s.series[ins.id]
	if ts == nil {
		ts = &TimeSeries{Name: ins.name, Labels: ins.labels, Kind: ins.kind.String()}
		s.series[ins.id] = ts
		s.order = append(s.order, ts)
	}
	return ts
}

// Series returns every sampled series in first-seen order.
func (s *Sampler) Series() []*TimeSeries { return s.order }

// Find returns the series for name+labels, or nil if never sampled.
func (s *Sampler) Find(name string, labels ...Label) *TimeSeries {
	return s.series[seriesID(name, canonLabels(labels))]
}
