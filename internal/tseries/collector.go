package tseries

import (
	"cmp"
	"fmt"
	"slices"

	"lfm/internal/monitor"
	"lfm/internal/sim"
	"lfm/internal/trace"
)

// Collector is the run-wide telemetry sink. The master feeds it node
// lifecycle and allocation changes; each monitored attempt streams its
// measurements through an AttemptRecorder. All entry points are safe on a
// nil collector (and a nil recorder), so call sites need no enabled-guards.
//
// The collector is passive: it never schedules simulation events and never
// mutates scheduler state. Its one outward influence is Flatlined, which the
// speculation scan may consult as a data-grounded straggler trigger — and
// only when telemetry is enabled.
type Collector struct {
	eng *sim.Engine
	cfg Config
	tr  *trace.Store

	// labelFn exposes the allocation strategy's current per-category label
	// (Auto), for the profile audit. meansFn exposes the category's
	// completed wall-time mean and sample count, for flatline gating.
	labelFn func(category string) (monitor.Resources, bool)
	meansFn func(category string) (mean float64, n int)

	profiles  map[string]*categoryProfile
	profOrder []string

	// current maps a node ID to its open timeline; timelines holds every
	// timeline ever opened, in join order (a node that leaves and rejoins
	// gets a fresh one).
	current   map[int]*nodeTimeline
	timelines []*nodeTimeline

	// open holds the recorders not yet closed, in no particular order
	// (each knows its slot); spare holds closed attempts' series, reset
	// for the next StartAttempt to reuse.
	open      []*AttemptRecorder
	spare     []*Series
	nextSeq   int
	attempts  []AttemptSummary
	anomalies []Anomaly
}

// NewCollector returns a collector on the engine. A nil cfg uses defaults.
func NewCollector(eng *sim.Engine, cfg *Config) *Collector {
	c := &Collector{
		eng:      eng,
		profiles: make(map[string]*categoryProfile),
		current:  make(map[int]*nodeTimeline),
	}
	if cfg != nil {
		c.cfg = *cfg
	}
	c.cfg.fillDefaults()
	return c
}

// SetTrace routes anomaly findings to the span store as trace.KindAnomaly
// instants.
func (c *Collector) SetTrace(tr *trace.Store) {
	if c != nil {
		c.tr = tr
	}
}

// SetLabelAudit installs the strategy's current-label lookup used to audit
// labels against observed peak distributions.
func (c *Collector) SetLabelAudit(fn func(category string) (monitor.Resources, bool)) {
	if c != nil {
		c.labelFn = fn
	}
}

// SetCategoryMeans installs the category wall-time mean lookup used to gate
// the flatline detector.
func (c *Collector) SetCategoryMeans(fn func(category string) (mean float64, n int)) {
	if c != nil {
		c.meansFn = fn
	}
}

// AnomalyCount reports how many anomalies have been flagged so far; zero
// on a nil collector.
func (c *Collector) AnomalyCount() int {
	if c == nil {
		return 0
	}
	return len(c.anomalies)
}

func (c *Collector) profile(category string) *categoryProfile {
	cp := c.profiles[category]
	if cp == nil {
		cp = &categoryProfile{category: category, window: c.cfg.ProfileWindow}
		c.profiles[category] = cp
		c.profOrder = append(c.profOrder, category)
	}
	return cp
}

// NodeJoin opens a utilization timeline for a worker node.
func (c *Collector) NodeJoin(id int, capacity monitor.Resources) {
	if c == nil {
		return
	}
	if n := c.current[id]; n != nil && !n.closed {
		return
	}
	n := newNodeTimeline(id, capacity, c.eng.Now(), c.cfg.NodeSeriesCap)
	c.current[id] = n
	c.timelines = append(c.timelines, n)
}

// NodeLeave closes a node's timeline; subsequent updates to it are ignored.
func (c *Collector) NodeLeave(id int) {
	if c == nil {
		return
	}
	if n := c.current[id]; n != nil {
		n.close(c.eng.Now())
	}
}

// NodeAlloc moves a node's allocated level by delta (negative to release).
func (c *Collector) NodeAlloc(id int, delta monitor.Resources) {
	if c == nil {
		return
	}
	if n := c.current[id]; n != nil {
		n.setAlloc(c.eng.Now(), delta)
	}
}

// AttemptRecorder streams one monitored attempt's measurements into a
// bounded series, mirrors them onto the node's used timeline, and runs the
// online anomaly detectors. A nil recorder discards everything.
type AttemptRecorder struct {
	c           *Collector
	task        int
	attempt     int
	speculative bool
	category    string
	node        int
	req         monitor.Resources
	started     sim.Time
	seq         int // StartAttempt order
	slot        int // index in Collector.open while open

	series *Series // nil once closed
	lastU  monitor.Resources
	haveU  bool

	leak        leakState
	flat        flatState
	flatFlagged bool
	closed      bool
}

// StartAttempt opens a recorder for one attempt about to execute.
func (c *Collector) StartAttempt(task, attempt int, speculative bool, category string, node int, req monitor.Resources) *AttemptRecorder {
	if c == nil {
		return nil
	}
	rec := &AttemptRecorder{
		c: c, task: task, attempt: attempt, speculative: speculative,
		category: category, node: node, req: req,
		started: c.eng.Now(), seq: c.nextSeq, slot: len(c.open),
	}
	c.nextSeq++
	if n := len(c.spare); n > 0 {
		rec.series = c.spare[n-1]
		c.spare = c.spare[:n-1]
	} else {
		rec.series = NewSeries(c.cfg.SeriesCap)
	}
	c.open = append(c.open, rec)
	return rec
}

// Observe is the monitor observer hook: one measurement, in time order.
func (rec *AttemptRecorder) Observe(at sim.Time, u monitor.Resources, src monitor.Source) {
	if rec == nil || rec.closed {
		return
	}
	var flag uint8
	switch src {
	case monitor.SourceEvent:
		flag = SrcEvent
	case monitor.SourceFinal:
		flag = SrcFinal
	default:
		flag = SrcPoll
	}
	rec.series.Add(at, u, flag)

	// Mirror the measurement onto the node's used timeline as a delta from
	// this attempt's previous level.
	c := rec.c
	if n := c.current[rec.node]; n != nil {
		delta := u
		if rec.haveU {
			delta = addRes(u, negRes(rec.lastU))
		}
		n.setUsed(at, delta, flag)
	}
	rec.lastU, rec.haveU = u, true

	if !c.cfg.Anomalies.Disable {
		if fire, detail := rec.leak.observe(&c.cfg.Anomalies, at, u); fire {
			c.flagAnomaly(AnomalyMemLeak, rec, at, detail)
		}
		rec.flat.observe(at, u)
	}
}

// flagAnomaly records a finding and emits it as a trace instant.
func (c *Collector) flagAnomaly(kind string, rec *AttemptRecorder, at sim.Time, detail string) {
	c.anomalies = append(c.anomalies, Anomaly{
		Kind: kind, Task: rec.task, Attempt: rec.attempt,
		Category: rec.category, Node: rec.node, At: at, Detail: detail,
	})
	if c.tr != nil {
		c.tr.Instant(trace.Span{
			Kind: trace.KindAnomaly, Task: rec.task, Category: rec.category,
			Worker: rec.node, Attempt: rec.attempt,
			Detail: kind + ": " + detail,
		}, at)
	}
}

// Flatlined reports whether the attempt's usage has been frozen past the
// configured window AND the attempt has outlived its category's mean wall
// time by the configured factor (with enough completed samples to trust the
// mean). The first positive answer is also recorded as an anomaly. Safe on a
// nil collector or recorder.
func (c *Collector) Flatlined(rec *AttemptRecorder, now sim.Time) bool {
	if c == nil || rec == nil || rec.closed || c.cfg.Anomalies.Disable {
		return false
	}
	a := &c.cfg.Anomalies
	if rec.flat.flatFor(now) < a.FlatlineAfter {
		return false
	}
	if c.meansFn == nil {
		return false
	}
	mean, n := c.meansFn(rec.category)
	if n < a.FlatlineMinSamples || mean <= 0 {
		return false
	}
	if float64(now-rec.started) < a.FlatlineMeanFactor*mean {
		return false
	}
	if !rec.flatFlagged {
		rec.flatFlagged = true
		detail := fmt.Sprintf("usage frozen %.0fs, attempt age %.0fs vs category mean %.0fs",
			float64(rec.flat.flatFor(now)), float64(now-rec.started), mean)
		c.flagAnomaly(AnomalyFlatline, rec, now, detail)
	}
	return true
}

// FinishAttempt folds a finished attempt's monitor report into the profiles
// and closes its recorder. Safe on a nil collector or recorder.
func (c *Collector) FinishAttempt(rec *AttemptRecorder, rep monitor.Report) {
	if c == nil || rec == nil || rec.closed {
		return
	}
	outcome := "failed"
	switch {
	case rep.Completed:
		outcome = "completed"
	case rep.Killed:
		outcome = "exhausted"
	}
	cp := c.profile(rec.category)
	if rep.Completed {
		cp.observe(profSample{
			peak: rep.Peak, mean: rep.MeanUsage,
			ttp: rep.TimeToPeak, wall: rep.WallTime,
		})
	} else if rep.Killed {
		cp.killed++
	}
	c.closeAttempt(rec, outcome, rep.End)
}

// AbortAttempt closes a recorder whose attempt ended without a monitor
// report (lost worker, cancelled speculative copy). Safe on nil.
func (c *Collector) AbortAttempt(rec *AttemptRecorder, outcome string) {
	if c == nil || rec == nil || rec.closed {
		return
	}
	c.closeAttempt(rec, outcome, c.eng.Now())
}

func (c *Collector) closeAttempt(rec *AttemptRecorder, outcome string, end sim.Time) {
	rec.closed = true
	// Retire the attempt's contribution to the node's used level.
	if rec.haveU {
		if n := c.current[rec.node]; n != nil {
			n.setUsed(end, negRes(rec.lastU), SrcEvent)
		}
	}
	pts := rec.series.Points()
	if len(pts) > 0 {
		// Anchor the delta chain to the attempt start: the monitor's first
		// measurement lands after its setup overhead, so the first delta is
		// that offset and Start + cumulative deltas give absolute times.
		pts[0].DT += rec.series.Start() - rec.started
	}
	c.attempts = append(c.attempts, AttemptSummary{
		Task: rec.task, Attempt: rec.attempt, Speculative: rec.speculative,
		Category: rec.category, Node: rec.node, Outcome: outcome,
		Start: rec.started, End: end, Requested: rec.req,
		Peak:            rec.series.Peak(),
		RawMeasurements: rec.series.Raw(),
		Stride:          rec.series.Stride(),
		Series:          pts,
	})
	// Points copied the series out, so its buffer goes to the next
	// attempt, and the closed recorder leaves the open set.
	rec.series.reset()
	c.spare = append(c.spare, rec.series)
	rec.series = nil
	last := c.open[len(c.open)-1]
	c.open[rec.slot], last.slot = last, rec.slot
	c.open[len(c.open)-1] = nil
	c.open = c.open[:len(c.open)-1]
}

// Finalize closes the books and renders the run's telemetry. Recorders still
// open (the run ended mid-attempt) are closed with outcome "open"; connected
// nodes accrue their integrals to now but are not marked left.
func (c *Collector) Finalize(meta RunMeta) *RunTelemetry {
	if c == nil {
		return nil
	}
	now := c.eng.Now()
	open := slices.Clone(c.open)
	slices.SortFunc(open, func(a, b *AttemptRecorder) int { return cmp.Compare(a.seq, b.seq) })
	for _, rec := range open {
		c.closeAttempt(rec, "open", now)
	}
	c.spare = nil
	for _, n := range c.timelines {
		n.finalize(now)
	}
	rt := &RunTelemetry{
		Meta:      meta,
		SeriesCap: c.cfg.SeriesCap,
		Attempts:  c.attempts,
		Anomalies: c.anomalies,
	}
	for _, cat := range c.profOrder {
		var label *monitor.Resources
		if c.labelFn != nil {
			if l, ok := c.labelFn(cat); ok {
				label = &l
			}
		}
		rt.Profiles = append(rt.Profiles, c.profiles[cat].summary(label))
	}
	for _, n := range c.timelines {
		rt.Nodes = append(rt.Nodes, n.summary())
	}
	rt.Util = summarizeUtilization(rt.Nodes)
	return rt
}
