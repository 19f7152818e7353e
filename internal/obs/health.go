package obs

import (
	"fmt"
	"math"

	"lfm/internal/sim"
)

// Finding severities, ordered. Info findings are observations; a run is
// unhealthy once it collects a warning or worse.
const (
	SevInfo     = "info"
	SevWarning  = "warning"
	SevCritical = "critical"
)

// HealthConfig tunes the rule thresholds of Analyze. The zero value uses
// the documented defaults; SLO fields default to disabled.
type HealthConfig struct {
	// UtilLowThreshold and UtilLowRunFraction fire the low-utilization
	// rule when utilization sat below the threshold (default 0.4) for at
	// least the given fraction of snapshots (default 0.6).
	UtilLowThreshold   float64
	UtilLowRunFraction float64
	// SkewFactor fires the latency-skew rule when a pool's scheduling p99
	// is at least this multiple of its p50 (default 20), given at least
	// MinLatencySamples observations (default 20).
	SkewFactor        float64
	MinLatencySamples uint64
	// QueueGrowthMinFraction is the least fraction of the run a monotone
	// queue-depth climb must span to fire the queue-growth rule
	// (default 0.25). QueueGrowthMinDepth is the least peak depth the climb
	// must reach (default 8): a handful of queued tasks is not a backlog.
	QueueGrowthMinFraction float64
	QueueGrowthMinDepth    int
	// SchedP99SLO and E2EP99SLO, when positive, fire critical findings if
	// the run's final p99 scheduling / end-to-end latency exceeds them.
	SchedP99SLO sim.Time
	E2EP99SLO   sim.Time
}

func (c *HealthConfig) fillDefaults() {
	if c.UtilLowThreshold <= 0 {
		c.UtilLowThreshold = 0.4
	}
	if c.UtilLowRunFraction <= 0 {
		c.UtilLowRunFraction = 0.6
	}
	if c.SkewFactor <= 0 {
		c.SkewFactor = 20
	}
	if c.MinLatencySamples == 0 {
		c.MinLatencySamples = 20
	}
	if c.QueueGrowthMinFraction <= 0 {
		c.QueueGrowthMinFraction = 0.25
	}
	if c.QueueGrowthMinDepth <= 0 {
		c.QueueGrowthMinDepth = 8
	}
}

// Finding is one health-rule hit with its evidence window.
type Finding struct {
	// Rule identifies the firing rule (e.g. "queue-growth",
	// "sched-latency-skew", "low-utilization", "sched-p99-slo").
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	// Detail is the human-readable evidence sentence.
	Detail string `json:"detail"`
	// WindowStart/WindowEnd bound the simulated-time evidence window when
	// the rule is windowed (both zero otherwise).
	WindowStart sim.Time `json:"window_start,omitempty"`
	WindowEnd   sim.Time `json:"window_end,omitempty"`
	// Value is the rule's headline number (ratio, fraction, count).
	Value float64 `json:"value,omitempty"`
}

// Health is the end-of-run health report: rule-driven findings over the
// retained snapshot timeline, exported as JSON and rendered by lfmreport.
type Health struct {
	// Healthy reports the absence of warning or critical findings.
	Healthy   bool      `json:"healthy"`
	Findings  []Finding `json:"findings,omitempty"`
	Snapshots int       `json:"snapshots"`
	Cadence   sim.Time  `json:"cadence"`
}

// Worst returns the report's highest severity ("" when healthy with no
// findings).
func (h *Health) Worst() string {
	worst := ""
	rank := map[string]int{SevInfo: 1, SevWarning: 2, SevCritical: 3}
	for _, f := range h.Findings {
		if rank[f.Severity] > rank[worst] {
			worst = f.Severity
		}
	}
	return worst
}

// Analyze runs the health rules over a run's retained snapshots. It is a
// pure function of the (deterministic) snapshot timeline, so same-seed
// runs produce identical reports. A nil cfg uses defaults.
func Analyze(ro *RunObs, cfg *HealthConfig) *Health {
	var c HealthConfig
	if cfg != nil {
		c = *cfg
	}
	c.fillDefaults()
	h := &Health{Healthy: true, Cadence: ro.Cadence, Snapshots: len(ro.Snapshots)}
	if ro.Final == nil {
		return h
	}
	fin := ro.Final
	add := func(f Finding) {
		h.Findings = append(h.Findings, f)
		if f.Severity != SevInfo {
			h.Healthy = false
		}
	}

	// Timeline rules need a few points to mean anything.
	snaps := ro.Snapshots
	if len(snaps) >= 3 {
		if f, ok := queueGrowth(snaps, fin, &c); ok {
			add(f)
		}
		if f, ok := lowUtilization(snaps, &c); ok {
			add(f)
		}
	}

	// Latency-skew over the final cumulative quantiles, pool-wide then
	// per category.
	skew := func(scope string, q LatencyQuantiles) {
		if q.Count < c.MinLatencySamples || q.P50 <= 0 {
			return
		}
		ratio := q.P99 / q.P50
		if ratio < c.SkewFactor {
			return
		}
		add(Finding{
			Rule: "sched-latency-skew", Severity: SevWarning, Value: ratio,
			Detail: fmt.Sprintf("%s p99 scheduling latency (%s) is %.0f× p50 (%s): a slice of tasks waits far longer than the median",
				scope, fmtDur(q.P99), ratio, fmtDur(q.P50)),
		})
	}
	skew("pool", fin.SchedLatency)
	for _, cl := range fin.Categories {
		skew("category "+cl.Category, cl.Sched)
	}

	// SLO gates.
	if c.SchedP99SLO > 0 && fin.SchedLatency.P99 > float64(c.SchedP99SLO) {
		add(Finding{
			Rule: "sched-p99-slo", Severity: SevCritical, Value: fin.SchedLatency.P99,
			Detail: fmt.Sprintf("p99 scheduling latency %s breaches the %s SLO",
				fmtDur(fin.SchedLatency.P99), fmtDur(float64(c.SchedP99SLO))),
		})
	}
	if c.E2EP99SLO > 0 && fin.E2ELatency.P99 > float64(c.E2EP99SLO) {
		add(Finding{
			Rule: "e2e-p99-slo", Severity: SevCritical, Value: fin.E2ELatency.P99,
			Detail: fmt.Sprintf("p99 end-to-end latency %s breaches the %s SLO",
				fmtDur(fin.E2ELatency.P99), fmtDur(float64(c.E2EP99SLO))),
		})
	}

	// Serving overload rule: fires only when a serving frontend offered
	// work (Offered > 0), so batch runs are unaffected. Shedding is the
	// designed response to overload — info when mild, warning once a large
	// slice of offered load is being turned away.
	if fin.Offered > 0 {
		drops := fin.Shed + fin.Rejected + fin.Throttled
		if drops > 0 {
			frac := float64(drops) / float64(fin.Offered)
			sev := SevInfo
			if frac > 0.3 {
				sev = SevWarning
			}
			add(Finding{
				Rule: "overload-shedding", Severity: sev, Value: frac,
				Detail: fmt.Sprintf("%d of %d offered tasks were turned away (%d shed, %d rejected, %d throttled, %.0f%%): offered load exceeded serving capacity",
					drops, fin.Offered, fin.Shed, fin.Rejected, fin.Throttled, 100*frac),
			})
		}
	}

	// Terminal-state rules.
	if fin.Failed > 0 {
		add(Finding{
			Rule: "task-failures", Severity: SevWarning, Value: float64(fin.Failed),
			Detail: fmt.Sprintf("%d of %d tasks failed permanently", fin.Failed, fin.Submitted),
		})
	}
	if fin.Submitted > 0 && float64(fin.Retries) > 0.5*float64(fin.Submitted) {
		add(Finding{
			Rule: "retry-storm", Severity: SevWarning,
			Value:  float64(fin.Retries) / float64(fin.Submitted),
			Detail: fmt.Sprintf("%d retries across %d submissions (%.0f%%): allocations or workers are churning tasks", fin.Retries, fin.Submitted, 100*float64(fin.Retries)/float64(fin.Submitted)),
		})
	}
	if fin.WorkersQuarantined > 0 {
		add(Finding{
			Rule: "quarantine-open", Severity: SevWarning, Value: float64(fin.WorkersQuarantined),
			Detail: fmt.Sprintf("%d workers were still quarantined when the run ended", fin.WorkersQuarantined),
		})
	} else if fin.QuarantineTrips > 0 {
		add(Finding{
			Rule: "quarantine-trips", Severity: SevInfo, Value: float64(fin.QuarantineTrips),
			Detail: fmt.Sprintf("the quarantine breaker tripped %d times (all lifted by run end)", fin.QuarantineTrips),
		})
	}
	if fin.Anomalies > 0 {
		add(Finding{
			Rule: "anomalies", Severity: SevInfo, Value: float64(fin.Anomalies),
			Detail: fmt.Sprintf("telemetry flagged %d usage anomalies (leaks/flatlines)", fin.Anomalies),
		})
	}
	if fin.ChaosInjected > 0 {
		add(Finding{
			Rule: "chaos", Severity: SevInfo, Value: float64(fin.ChaosInjected),
			Detail: fmt.Sprintf("%d faults were injected by the chaos engine", fin.ChaosInjected),
		})
	}
	return h
}

// queueGrowth looks for the longest monotone non-decreasing climb ending
// at the run's peak queue depth; a climb with real growth spanning enough
// of the run means arrivals outran placements.
func queueGrowth(snaps []*Snapshot, fin *Snapshot, c *HealthConfig) (Finding, bool) {
	peak := 0
	for i, s := range snaps {
		if s.QueueDepth > snaps[peak].QueueDepth {
			peak = i
		}
	}
	if snaps[peak].QueueDepth < c.QueueGrowthMinDepth {
		return Finding{}, false
	}
	start := peak
	for start > 0 && snaps[start-1].QueueDepth <= snaps[start].QueueDepth {
		start--
	}
	if snaps[start].QueueDepth >= snaps[peak].QueueDepth {
		return Finding{}, false // flat, not growth
	}
	runSpan := float64(fin.At - snaps[0].At)
	span := float64(snaps[peak].At - snaps[start].At)
	if runSpan <= 0 || span < c.QueueGrowthMinFraction*runSpan {
		return Finding{}, false
	}
	return Finding{
		Rule: "queue-growth", Severity: SevWarning,
		WindowStart: snaps[start].At, WindowEnd: snaps[peak].At,
		Value: float64(snaps[peak].QueueDepth),
		Detail: fmt.Sprintf("queue depth grew monotonically from %d to %d between t=%s and t=%s (%.0f%% of the run): arrivals outran placements",
			snaps[start].QueueDepth, snaps[peak].QueueDepth,
			fmtDur(float64(snaps[start].At)), fmtDur(float64(snaps[peak].At)),
			100*span/runSpan),
	}, true
}

// lowUtilization fires when allocated/provisioned cores sat under the
// threshold for most of the run.
func lowUtilization(snaps []*Snapshot, c *HealthConfig) (Finding, bool) {
	low, first, last := 0, -1, -1
	for i, s := range snaps {
		if s.PoolCores > 0 && s.Utilization < c.UtilLowThreshold {
			low++
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	frac := float64(low) / float64(len(snaps))
	if frac < c.UtilLowRunFraction {
		return Finding{}, false
	}
	return Finding{
		Rule: "low-utilization", Severity: SevWarning,
		WindowStart: snaps[first].At, WindowEnd: snaps[last].At,
		Value: frac,
		Detail: fmt.Sprintf("cluster utilization was below %.0f%% for %.0f%% of the run (%d of %d snapshots): the pool is oversized or the queue starved",
			100*c.UtilLowThreshold, 100*frac, low, len(snaps)),
	}, true
}

// fmtDur renders a simulated duration in seconds with sensible precision.
func fmtDur(sec float64) string {
	switch {
	case sec == 0:
		return "0s"
	case math.Abs(sec) < 0.1:
		return fmt.Sprintf("%.0fms", sec*1000)
	case math.Abs(sec) < 60:
		return fmt.Sprintf("%.2gs", sec)
	case math.Abs(sec) < 3600:
		return fmt.Sprintf("%.1fm", sec/60)
	default:
		return fmt.Sprintf("%.1fh", sec/3600)
	}
}
