// Package metrics is a lightweight in-process observability layer for the
// simulation: a registry of counters, gauges, and fixed-bucket histograms,
// each identified by a metric name plus ordered key/value labels; a passive
// simulated-clock sampler that reads registered instruments into time series
// at the engine's clock boundaries, at a fixed resolution and without
// scheduling events (in the spirit of fine-grained agent monitors that
// collect per-component metrics on a 1-second loop); and exporters for the
// Prometheus text format and a JSON timeline.
//
// The registry is deliberately tiny: instruments are get-or-create (so hot
// paths can hold a pointer once and update it for free), registration order
// is preserved (so exports and samples are deterministic under the
// simulation kernel), and there is no locking because the simulation is
// single-threaded by construction.
package metrics

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Label is one key/value dimension of a metric series (e.g. category, worker,
// resource kind).
type Label struct {
	Key, Value string
}

// L builds a Label; a shorthand for instrumentation sites.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates instrument types.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// String names the kind as it appears in exports ("counter", "gauge",
// "histogram").
func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing value (events, bytes, retries).
type Counter struct{ v float64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add increases the counter by d. Counters only go up; a negative d panics,
// as it always indicates an instrumentation bug.
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("metrics: counter decreased")
	}
	c.v += d
}

// Value reports the current total.
func (c *Counter) Value() float64 { return c.v }

// Gauge is a value that can go up and down (queue depth, pool size). A gauge
// may instead be backed by a function, evaluated at sample/export time.
type Gauge struct {
	v  float64
	fn func() float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the gauge by d (negative allowed).
func (g *Gauge) Add(d float64) { g.v += d }

// Value reports the current value, consulting the backing function if set.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v
}

// Histogram accumulates observations into fixed buckets. Bounds are upper
// bucket edges in ascending order; an implicit +Inf bucket catches the rest.
// Construct through Registry.Histogram, or with NewHistogram for a
// standalone instrument outside any registry.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1, last is the +Inf bucket
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
}

// Count reports total observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the total of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean reports the average observation, or 0 with none.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min reports the smallest observation, or 0 with none.
func (h *Histogram) Min() float64 { return h.min }

// Max reports the largest observation, or 0 with none.
func (h *Histogram) Max() float64 { return h.max }

// Cumulative returns cumulative counts per bound plus the +Inf bucket last —
// the `le` semantics of the Prometheus exposition format.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		out[i] = acc
	}
	return out
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation within
// the containing bucket, clamped to the observed min/max.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	var acc uint64
	lo := h.min
	for i, c := range h.counts {
		if float64(acc)+float64(c) >= target {
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if i > 0 && h.bounds[i-1] > lo {
				lo = h.bounds[i-1]
			}
			if c == 0 || hi < lo {
				return lo
			}
			frac := (target - float64(acc)) / float64(c)
			return lo + frac*(hi-lo)
		}
		acc += c
	}
	return h.max
}

// LinearBuckets returns count upper bounds spaced width apart, the first at
// start+width.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + width*float64(i+1)
	}
	return out
}

// ExpBuckets returns count upper bounds starting at start, each factor times
// the previous.
func ExpBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefTimeBuckets spans 50ms to ~27min, suitable for task wait and execution
// times in the simulated workloads.
func DefTimeBuckets() []float64 { return ExpBuckets(0.05, 2, 16) }

// NewHistogram returns a standalone histogram with the given bucket bounds
// (DefTimeBuckets when empty) — for subsystems that aggregate privately
// and export through their own surface rather than a registry, like the
// obs snapshot bus's latency quantiles. Bounds are copied and sorted.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefTimeBuckets()
	} else {
		bounds = append([]float64(nil), bounds...)
		sort.Float64s(bounds)
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// instrument is one registered series.
type instrument struct {
	id      string
	name    string
	labels  []Label
	kind    kind
	removed bool

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds the instruments of one run.
type Registry struct {
	byID  map[string]*instrument
	order []*instrument
	kinds map[string]kind   // name -> kind, to reject mixed-kind names
	help  map[string]string // name -> HELP text

	// Scratch for lookup: the sorted labels and the series ID of the
	// latest call, so a hit on an existing series allocates nothing.
	labelBuf []Label
	idBuf    []byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:  make(map[string]*instrument),
		kinds: make(map[string]kind),
		help:  make(map[string]string),
	}
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// sortLabels orders labels by key in place.
func sortLabels(labels []Label) {
	slices.SortFunc(labels, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
}

// canonLabels returns labels sorted by key; it copies so callers' slices stay
// untouched.
func canonLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := slices.Clone(labels)
	sortLabels(out)
	return out
}

// appendSeriesID appends the series ID of name and its sorted labels to b.
func appendSeriesID(b []byte, name string, labels []Label) []byte {
	b = append(b, name...)
	for _, l := range labels {
		b = append(b, 0xff)
		b = append(b, l.Key...)
		b = append(b, 0xfe)
		b = append(b, l.Value...)
	}
	return b
}

func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	return string(appendSeriesID(nil, name, labels))
}

// lookup finds or creates the instrument, enforcing name/kind consistency.
// Mixing kinds under one metric name is always an instrumentation bug, so it
// panics rather than silently corrupting the export. Names and label keys
// are validated when a series is created (or asked for under another kind,
// which panics below); finding an existing one costs a sort of the labels
// into scratch and one map probe, with no allocation.
func (r *Registry) lookup(name string, k kind, labels []Label) *instrument {
	r.labelBuf = append(r.labelBuf[:0], labels...)
	sortLabels(r.labelBuf)
	r.idBuf = appendSeriesID(r.idBuf[:0], name, r.labelBuf)
	if ins, ok := r.byID[string(r.idBuf)]; ok && ins.kind == k {
		return ins
	}
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range r.labelBuf {
		if !labelRe.MatchString(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label key %q on %s", l.Key, name))
		}
	}
	if prev, ok := r.kinds[name]; ok && prev != k {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, prev, k))
	}
	ins := &instrument{id: string(r.idBuf), name: name, labels: canonLabels(labels), kind: k}
	r.kinds[name] = k
	r.byID[ins.id] = ins
	r.order = append(r.order, ins)
	return ins
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	ins := r.lookup(name, kindCounter, labels)
	if ins.counter == nil {
		ins.counter = &Counter{}
	}
	return ins.counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	ins := r.lookup(name, kindGauge, labels)
	if ins.gauge == nil {
		ins.gauge = &Gauge{}
	}
	return ins.gauge
}

// GaugeFunc registers a derived gauge evaluated at sample/export time (queue
// depths, pool sizes, free capacity). Re-registering the same series replaces
// the function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	ins := r.lookup(name, kindGauge, labels)
	ins.gauge = &Gauge{fn: fn}
}

// FreezeGauges holds every gauge at its current value: a gauge backed by a
// function reads it once more and drops it, so the registry no longer keeps
// alive what the function refers to (a finished run's master, workers and
// cluster). Call it once the instrumented system has stopped changing.
func (r *Registry) FreezeGauges() {
	for _, ins := range r.order {
		if g := ins.gauge; g != nil {
			g.v, g.fn = g.Value(), nil
		}
	}
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket bounds on first use (DefTimeBuckets when nil). Bounds are
// fixed at creation; later calls return the existing instrument unchanged.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	ins := r.lookup(name, kindHistogram, labels)
	if ins.hist == nil {
		ins.hist = NewHistogram(bounds)
	}
	return ins.hist
}

// Unregister removes one series (e.g. a departed worker's gauges) from future
// samples and exports. Unknown series are a no-op.
func (r *Registry) Unregister(name string, labels ...Label) {
	id := seriesID(name, canonLabels(labels))
	if ins, ok := r.byID[id]; ok {
		ins.removed = true
		delete(r.byID, id)
	}
}

// Help attaches a HELP string emitted by the Prometheus exporter.
func (r *Registry) Help(name, text string) { r.help[name] = text }

// Names lists registered metric names, sorted.
func (r *Registry) Names() []string {
	seen := map[string]bool{}
	var out []string
	for _, ins := range r.order {
		if ins.removed || seen[ins.name] {
			continue
		}
		seen[ins.name] = true
		out = append(out, ins.name)
	}
	sort.Strings(out)
	return out
}
