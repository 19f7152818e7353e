// Package alloc implements the resource-allocation strategies the paper
// evaluates in §VI-C: perfect knowledge (Oracle), dynamic automatic labeling
// (Auto, the Work Queue first-allocation algorithm of Tovar et al. [21]),
// user-provided imperfect knowledge (Guess), and whole-node allocation
// (Unmanaged). A Strategy decides the resource label each task runs under
// and learns from monitor reports.
package alloc

import (
	"cmp"
	"math"
	"slices"

	"lfm/internal/metrics"
	"lfm/internal/monitor"
)

// Decision is a strategy's answer for one task attempt.
type Decision struct {
	// Request is the resource label to run under.
	Request monitor.Resources
	// WholeNode requests an entire worker regardless of label.
	WholeNode bool
	// Monitorless indicates limits should not be enforced (Unmanaged runs
	// without an LFM).
	Monitorless bool
}

// Strategy labels tasks with resource requests and learns from outcomes.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Next returns the allocation for a fresh task of the given category.
	Next(category string) Decision
	// Retry returns the allocation after attempt failed attempts due to
	// resource exhaustion.
	Retry(category string, attempt int) Decision
	// Observe feeds back a finished attempt's monitor report.
	Observe(category string, rep monitor.Report)
}

// Issuer is implemented by strategies that count the decisions they issue.
// Next may be probed any number of times per placement, so the master
// instead calls Issued once for each attempt it starts under a decision
// from Next (retries and speculative copies excluded).
type Issuer interface {
	Issued(category string, dec Decision)
}

// Oracle allocates the exact true peak (optionally padded). It exists only
// as the reference upper bound; the paper stresses that real users cannot
// construct it.
type Oracle struct {
	// Peaks maps task category to true peak usage.
	Peaks map[string]monitor.Resources
	// Pad is a fractional safety margin added to each dimension.
	Pad float64
}

// Name implements Strategy.
func (o *Oracle) Name() string { return "Oracle" }

// Next implements Strategy.
func (o *Oracle) Next(category string) Decision {
	p, ok := o.Peaks[category]
	if !ok {
		return Decision{WholeNode: true}
	}
	return Decision{Request: monitor.Resources{
		Cores:    math.Ceil(p.Cores - 1e-9),
		MemoryMB: p.MemoryMB * (1 + o.Pad),
		DiskMB:   p.DiskMB * (1 + o.Pad),
	}}
}

// Retry implements Strategy. With true peaks retries indicate the oracle's
// knowledge was wrong (the paper observed exactly this for VEP); fall back
// to a whole node.
func (o *Oracle) Retry(category string, attempt int) Decision {
	return Decision{WholeNode: true}
}

// Observe implements Strategy; the oracle learns nothing.
func (o *Oracle) Observe(string, monitor.Report) {}

// Guess allocates a fixed user-provided label for every task, the "imperfect
// knowledge" configuration of existing frameworks.
type Guess struct {
	// Fixed is the label requested for every task regardless of category.
	Fixed monitor.Resources
}

// Name implements Strategy.
func (g *Guess) Name() string { return "Guess" }

// Next implements Strategy.
func (g *Guess) Next(string) Decision { return Decision{Request: g.Fixed} }

// Retry implements Strategy: a user with a fixed guess can only escalate to
// the whole node.
func (g *Guess) Retry(string, int) Decision { return Decision{WholeNode: true} }

// Observe implements Strategy; a fixed guess never adapts.
func (g *Guess) Observe(string, monitor.Report) {}

// Unmanaged allocates an entire worker to every task with no monitoring —
// the coarse-grained status quo the paper argues against.
type Unmanaged struct{}

// Name implements Strategy.
func (u *Unmanaged) Name() string { return "Unmanaged" }

// Next implements Strategy.
func (u *Unmanaged) Next(string) Decision {
	return Decision{WholeNode: true, Monitorless: true}
}

// Retry implements Strategy.
func (u *Unmanaged) Retry(string, int) Decision {
	return Decision{WholeNode: true, Monitorless: true}
}

// Observe implements Strategy.
func (u *Unmanaged) Observe(string, monitor.Report) {}

// Auto implements the automatic first-allocation algorithm: run early tasks
// of a category under a large allocation with monitoring enabled, then label
// subsequent tasks with the allocation that minimizes expected resource
// waste, retrying at full size on exhaustion. See §VI-B2 and [21].
//
// Each category keeps its windowed peaks sorted per dimension, updated as
// peaks arrive and leave the window, so computing a label is one linear,
// allocation-free sweep. The label is also memoised per category: it is
// recomputed only after the category's history changes (a completed
// observation or a preload) or after Pad, BootstrapBoost or SafetyStds
// changed since it was computed. Next is a pure function of per-category
// state with no side effects; between new peaks it costs one map lookup.
type Auto struct {
	// MinSamples is how many completed observations a category needs before
	// labels shrink below a whole node — the paper's "run a task under a
	// large allocation" bootstrap. Default 1.
	MinSamples int
	// Pad is a fractional margin added to the chosen label's memory and
	// disk. Cores are allocated as whole units (rounded up, unpadded), as
	// Work Queue does.
	Pad float64
	// BootstrapBoost adds decaying early-sample headroom: with n
	// observations, memory and disk labels are scaled by an extra
	// BootstrapBoost/n. One observation says little about the tail; the
	// boost buys packing immediately after the first completion without a
	// burst of exhaustion retries while the model is cold.
	BootstrapBoost float64
	// SafetyStds adds headroom for the unseen tail: the label is inflated
	// by this many standard deviations of the observations at or below the
	// chosen allocation. Spread below the choice measures local noise
	// without dragging a bimodal distribution's far mode into the label.
	// Default 3.
	SafetyStds float64
	// MaxSamples bounds retained history per category (sliding window).
	MaxSamples int

	hist map[string]*history
	reg  *metrics.Registry
	// counters caches reg's handles by metric name and category, each
	// registered at its first count.
	counters map[counterKey]*metrics.Counter
}

type counterKey struct{ name, category string }

// SetMetrics attaches a metrics registry: label issues, bootstrap decisions,
// retry escalations, and observations are counted per category from then on.
// Issues and bootstraps are counted by Issued, once per attempt the master
// starts, not by Next. Nil detaches.
func (a *Auto) SetMetrics(reg *metrics.Registry) {
	a.reg, a.counters = reg, nil
	if reg == nil {
		return
	}
	a.counters = make(map[counterKey]*metrics.Counter)
	reg.Help("alloc_labels_issued_total", "sized labels issued from the learned model, by category")
	reg.Help("alloc_bootstraps_total", "whole-node bootstrap allocations issued, by category")
	reg.Help("alloc_retry_escalations_total", "full-size retries after resource exhaustion, by category")
	reg.Help("alloc_observations_total", "completed-run peaks fed back into the model, by category")
}

func (a *Auto) count(name, category string) {
	if a.reg == nil {
		return
	}
	k := counterKey{name, category}
	c := a.counters[k]
	if c == nil {
		c = a.reg.Counter(name, metrics.L("category", category))
		a.counters[k] = c
	}
	c.Inc()
}

type history struct {
	// peaks is the window of observed peaks in arrival order; sorted holds
	// the same values per dimension (cores, memory, disk) in peakOrder.
	peaks   []monitor.Resources
	sorted  [3][]float64
	retries int
	// label memoises computeLabel under the knobs in labelFor; labelOK is
	// cleared whenever peaks change. Retries do not enter the label, so
	// Retry leaves it alone.
	label    monitor.Resources
	labelFor labelKnobs
	labelOK  bool
}

// dims lists a peak's values in the order of history.sorted.
func dims(p monitor.Resources) [3]float64 { return [3]float64{p.Cores, p.MemoryMB, p.DiskMB} }

// peakOrder is a total order on peak values: NaNs first (by bit pattern),
// then ascending, with -0 before +0. Values it calls equal have the same
// bits, so the sorted window does not depend on arrival order.
func peakOrder(a, b float64) int {
	switch an, bn := math.IsNaN(a), math.IsNaN(b); {
	case an && bn:
		return cmp.Compare(math.Float64bits(a), math.Float64bits(b))
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	// Equal values differ in bits only as -0 and +0; -0 has the sign bit.
	return cmp.Compare(math.Float64bits(b), math.Float64bits(a))
}

// add appends a peak to the window, evicting the oldest beyond max (no
// bound if max <= 0).
func (h *history) add(p monitor.Resources, max int) {
	h.peaks = append(h.peaks, p)
	for d, v := range dims(p) {
		i, _ := slices.BinarySearchFunc(h.sorted[d], v, peakOrder)
		h.sorted[d] = slices.Insert(h.sorted[d], i, v)
	}
	for max > 0 && len(h.peaks) > max {
		for d, v := range dims(h.peaks[0]) {
			i, _ := slices.BinarySearchFunc(h.sorted[d], v, peakOrder)
			h.sorted[d] = slices.Delete(h.sorted[d], i, i+1)
		}
		h.peaks = h.peaks[1:]
	}
	h.labelOK = false
}

// labelKnobs are the bit patterns of the Auto fields the label reads, so a
// field changed between calls (NaN and signed zeros included) forces a
// recompute.
type labelKnobs struct{ pad, boost, stds uint64 }

func (a *Auto) knobs() labelKnobs {
	return labelKnobs{math.Float64bits(a.Pad), math.Float64bits(a.BootstrapBoost), math.Float64bits(a.SafetyStds)}
}

// bootstrapping reports whether a category has too few observations to
// label. An empty history always bootstraps, whatever MinSamples says.
func (a *Auto) bootstrapping(h *history) bool {
	return h == nil || len(h.peaks) == 0 || len(h.peaks) < a.MinSamples
}

// NewAuto returns an Auto strategy with the defaults described above.
func NewAuto() *Auto {
	return &Auto{MinSamples: 1, Pad: 0.05, SafetyStds: 3, BootstrapBoost: 2, MaxSamples: 1000, hist: map[string]*history{}}
}

// Name implements Strategy.
func (a *Auto) Name() string { return "Auto" }

// Next implements Strategy. It has no side effects: a matcher may probe it
// any number of times per placement.
func (a *Auto) Next(category string) Decision {
	h := a.hist[category]
	if a.bootstrapping(h) {
		// Bootstrap: large allocation, monitored.
		return Decision{WholeNode: true}
	}
	return Decision{Request: a.label(h)}
}

// Issued implements Issuer: it counts a decision Next returned as a label
// issue or, for a whole node, a bootstrap.
func (a *Auto) Issued(category string, dec Decision) {
	if dec.WholeNode {
		a.count("alloc_bootstraps_total", category)
	} else {
		a.count("alloc_labels_issued_total", category)
	}
}

// Retry implements Strategy: after an exhaustion failure rerun at full size,
// "rerun the task using a full worker in case of resource exhaustion".
func (a *Auto) Retry(category string, attempt int) Decision {
	if h := a.hist[category]; h != nil {
		h.retries++
	}
	a.count("alloc_retry_escalations_total", category)
	return Decision{WholeNode: true}
}

// Observe implements Strategy. Only completed runs contribute peaks: a
// killed run's measured peak is truncated at the limit and would bias labels
// downward forever.
func (a *Auto) Observe(category string, rep monitor.Report) {
	if !rep.Completed {
		return
	}
	a.count("alloc_observations_total", category)
	a.history(category).add(rep.Peak, a.MaxSamples)
}

// history returns a category's history, creating it empty.
func (a *Auto) history(category string) *history {
	h := a.hist[category]
	if h == nil {
		h = &history{}
		a.hist[category] = h
	}
	return h
}

// CurrentLabel reports the allocation the strategy would issue for the
// category right now, without counting as an issuance: false while the
// category is still bootstrapping. Telemetry uses it to audit labels against
// the observed peak distribution.
func (a *Auto) CurrentLabel(category string) (monitor.Resources, bool) {
	h := a.hist[category]
	if a.bootstrapping(h) {
		return monitor.Resources{}, false
	}
	return a.label(h), true
}

// Preload seeds a category with peaks observed in earlier runs, skipping
// the whole-node bootstrap: "This initial measurement can be skipped ...
// if statistics from previous tasks are available" (§VI-B2).
func (a *Auto) Preload(category string, peaks []monitor.Resources) {
	h := a.history(category)
	for _, p := range peaks {
		h.add(p, a.MaxSamples)
	}
}

// History exports a category's observed peaks, for persisting between runs
// and preloading later sessions.
func (a *Auto) History(category string) []monitor.Resources {
	h := a.hist[category]
	if h == nil {
		return nil
	}
	out := make([]monitor.Resources, len(h.peaks))
	copy(out, h.peaks)
	return out
}

// Retries reports how many exhaustion retries a category has needed.
func (a *Auto) Retries(category string) int {
	if h := a.hist[category]; h != nil {
		return h.retries
	}
	return 0
}

// Samples reports how many observations a category has accumulated.
func (a *Auto) Samples(category string) int {
	if h := a.hist[category]; h != nil {
		return len(h.peaks)
	}
	return 0
}

// label returns a non-empty history's label, recomputing it only when the
// peaks or the knobs it reads changed since it was last computed.
func (a *Auto) label(h *history) monitor.Resources {
	if k := a.knobs(); !h.labelOK || h.labelFor != k {
		h.label, h.labelFor, h.labelOK = a.computeLabel(h), k, true
	}
	return h.label
}

// computeLabel picks, per resource dimension, the first allocation
// minimizing expected waste: candidate values are observed peaks, and the
// cost of candidate c is c (paid by every task) plus the overflow
// probability times the retry's cost, with tail headroom added per
// SafetyStds. A NaN dimension comes out as math.NaN(): which NaN payload
// survives the arithmetic depends on code generation, and a label must
// not.
func (a *Auto) computeLabel(h *history) monitor.Resources {
	scale := 1 + a.Pad + a.BootstrapBoost/float64(len(h.peaks))
	return monitor.Resources{
		Cores:    canonNaN(math.Ceil(a.chooseDim(h.sorted[0]) - 1e-9)),
		MemoryMB: canonNaN(a.chooseDim(h.sorted[1]) * scale),
		DiskMB:   canonNaN(a.chooseDim(h.sorted[2]) * scale),
	}
}

// canonNaN maps every NaN to math.NaN() and leaves other values alone.
func canonNaN(x float64) float64 {
	if x != x {
		return math.NaN()
	}
	return x
}

// chooseDim labels one dimension from its values in peakOrder.
func (a *Auto) chooseDim(vals []float64) float64 {
	n := len(vals)
	max := vals[n-1]
	best := max
	bestCost := max * float64(n) // allocating the max never overflows
	// above is the first index whose value is at least c+1e-12. NaNs sort
	// first and never compare at least anything, and c+1e-12 only grows
	// along the sweep, so above only moves right.
	above := 0
	for i, c := range vals {
		if c != c || i > 0 && c == vals[i-1] {
			continue // a NaN candidate costs NaN; or a duplicate candidate
		}
		for above < n && !(vals[above] >= c+1e-12) {
			above++
		}
		// Peaks strictly above c overflow; equal peaks fit. An overflowing
		// task wastes its entire failed attempt (it held c for the full run
		// before the kill) and then pays a full-size retry at max.
		cost := c*float64(n) + float64(n-above)*(c+max)
		if cost < bestCost {
			best = c
			bestCost = cost
		}
	}
	// Tail headroom: the observed maximum of a noisy distribution
	// underestimates its true upper bound, especially with few samples.
	// Inflate by the spread of the observations at or below the choice:
	// the run vals[lo:hi] after the NaNs, accumulated in order as a Welford
	// running variance. A run of equal finite values has no spread, and
	// Welford's sums stay exactly zero over it, so it is skipped.
	if a.SafetyStds > 0 {
		lo := 0
		for lo < n && vals[lo] != vals[lo] {
			lo++
		}
		hi := lo
		for hi < n && vals[hi] <= best+1e-12 {
			hi++
		}
		var std float64
		if k := hi - lo; k >= 2 && (vals[lo] != vals[hi-1] || math.IsInf(vals[lo], 0)) {
			var mean, m2 float64
			for i, v := range vals[lo:hi] {
				d := v - mean
				mean += d / float64(i+1)
				m2 += d * (v - mean)
			}
			std = math.Sqrt(m2 / float64(k-1))
		}
		best += a.SafetyStds * std
	}
	return best
}
