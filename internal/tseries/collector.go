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
// The collector is passive: it never schedules simulation events, never
// mutates scheduler state, and no decision of the run reads it.
type Collector struct {
	eng *sim.Engine
	cfg Config
	tr  *trace.Store

	// labelFn exposes the allocation strategy's current per-category label
	// (Auto), for the profile audit.
	labelFn func(category string) (monitor.Resources, bool)

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
	placed    []placement // attempts[i] ran on placed[i]'s node timeline
	anomalies []Anomaly

	// final is what the first Finalize returned.
	final *RunTelemetry
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
// instants, recorded in time order by Finalize.
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
	n := newNodeTimeline(id, len(c.timelines), capacity, c.eng.Now(), c.cfg.NodeSeriesCap)
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

// placement ties a closed attempt to the node timeline it ran on (nil when
// its node had none open) and to its start order.
type placement struct {
	tl  *nodeTimeline
	seq int
}

// AttemptRecorder streams one monitored attempt's measurements into a
// bounded series, integrates its used core- and MB-seconds from them, and
// runs the online anomaly detectors. A nil recorder discards everything.
type AttemptRecorder struct {
	c           *Collector
	task        int
	attempt     int
	speculative bool
	category    string
	node        int
	tl          *nodeTimeline // the node's timeline at start, nil if none
	req         monitor.Resources
	started     sim.Time
	seq         int // StartAttempt order
	slot        int // index in Collector.open while open

	series *Series // nil once closed
	lastU  monitor.Resources
	lastAt sim.Time
	haveU  bool
	// usedCS and usedMemS integrate the measured level, each measurement
	// held until the next one (or the close), exactly.
	usedCS, usedMemS float64

	leak   leakState
	closed bool
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
	if tl := c.current[node]; tl != nil && !tl.closed {
		rec.tl = tl
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

// Observe is the monitor observer hook: one measurement of the attempt, in
// the attempt's time order. The monitor folds its polls, so measurements of
// different attempts arrive interleaved out of time order; nothing here
// depends on that order.
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
	rec.accrue(at)
	rec.lastU, rec.lastAt, rec.haveU = u, at, true

	c := rec.c
	if !c.cfg.Anomalies.Disable {
		if fire, detail := rec.leak.observe(&c.cfg.Anomalies, at, u); fire {
			c.flagAnomaly(AnomalyMemLeak, rec, at, detail)
		}
	}
}

// accrue integrates the last measured level up to at.
func (rec *AttemptRecorder) accrue(at sim.Time) {
	if dt := float64(at - rec.lastAt); rec.haveU && dt > 0 {
		rec.usedCS += rec.lastU.Cores * dt
		rec.usedMemS += rec.lastU.MemoryMB * dt
	}
}

// flagAnomaly records a finding; Finalize puts the findings in time order
// and emits them as trace instants.
func (c *Collector) flagAnomaly(kind string, rec *AttemptRecorder, at sim.Time, detail string) {
	c.anomalies = append(c.anomalies, Anomaly{
		Kind: kind, Task: rec.task, Attempt: rec.attempt,
		Category: rec.category, Node: rec.node, At: at, Detail: detail,
		seq: rec.seq,
	})
}

// Flatline records that the master's speculation scan found the attempt
// flatlined now: its usage frozen for frozen while it ran past its
// category's mean wall time mean. Safe on a nil collector or recorder.
func (c *Collector) Flatline(rec *AttemptRecorder, frozen sim.Time, mean float64) {
	if c == nil || rec == nil || rec.closed || c.cfg.Anomalies.Disable {
		return
	}
	now := c.eng.Now()
	c.flagAnomaly(AnomalyFlatline, rec, now, fmt.Sprintf("usage frozen %.0fs, attempt age %.0fs vs category mean %.0fs",
		float64(frozen), float64(now-rec.started), mean))
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
	rec.accrue(end)
	if rec.tl != nil {
		rec.tl.usedCS += rec.usedCS
		rec.tl.usedMemS += rec.usedMemS
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
	c.placed = append(c.placed, placement{rec.tl, rec.seq})
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

// mergeUsed builds every node's used display series from the attempts that
// ran on it (see nodeTimeline.mergeUsed), visiting them grouped by node in
// start order, through one scratch buffer.
func (c *Collector) mergeUsed() {
	order := make([]int, 0, len(c.attempts))
	for i, p := range c.placed {
		if p.tl != nil {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		pa, pb := c.placed[a], c.placed[b]
		return cmp.Or(cmp.Compare(pa.tl.idx, pb.tl.idx), cmp.Compare(pa.seq, pb.seq))
	})
	var h []usedCursor
	for _, n := range c.timelines {
		k := 0
		for k < len(order) && c.placed[order[k]].tl == n {
			k++
		}
		h = n.mergeUsed(c.attempts, c.placed, order[:k], h)
		order = order[k:]
	}
	c.placed = nil
}

// Finalize closes the books and renders the run's telemetry. Recorders still
// open (the run ended mid-attempt) are closed with outcome "open"; connected
// nodes accrue their integrals to now but are not marked left. Finalize is
// once-only: it hands every node timeline's series buffers to the result
// rather than copying them, so a repeat call returns the first result, meta
// included, and its node timelines ignore later updates.
func (c *Collector) Finalize(meta RunMeta) *RunTelemetry {
	if c == nil {
		return nil
	}
	if c.final != nil {
		return c.final
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
	c.mergeUsed()
	// The monitor's fold delivers measurements late, so findings are
	// flagged out of time order: order them by time, then by attempt start
	// order, which depends on nothing the fold decides.
	slices.SortStableFunc(c.anomalies, func(a, b Anomaly) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.seq, b.seq))
	})
	for _, a := range c.anomalies {
		c.tr.Instant(trace.Span{
			Kind: trace.KindAnomaly, Task: a.Task, Category: a.Category,
			Worker: a.Node, Attempt: a.Attempt,
			Detail: a.Kind + ": " + a.Detail,
		}, a.At)
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
	c.final = rt
	return rt
}
