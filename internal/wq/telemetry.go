package wq

import (
	"lfm/internal/monitor"
	"lfm/internal/tseries"
)

// SetTelemetry attaches a telemetry collector to the master: worker joins
// and leaves open and close node utilization timelines, every allocation
// change moves the allocated level, and each executing attempt streams its
// monitor measurements into a bounded per-attempt series. The collector's
// flatline detector also becomes a data-grounded speculation trigger (the
// one behavioural effect of telemetry, active only when resilience
// speculation is itself enabled). Recorders take each attempt's polls from
// the monitor's fold, except under speculation: the scan reads a
// recorder's flatline state between the run's own events, so then every
// monitored run wakes at each poll (monitor.Config.LiveObserver). Call
// before submitting work; nil detaches. Runs without a collector pay only
// a nil check per transition.
func (m *Master) SetTelemetry(c *tseries.Collector) {
	m.telem = c
	m.lfm.Cfg.LiveObserver = c != nil && m.Cfg.Resilience.SpeculationMultiplier > 0
	c.SetCategoryMeans(func(category string) (float64, int) {
		cs := m.categories.byCat[category]
		if cs == nil {
			return 0, 0
		}
		return cs.WallTimes.Mean(), cs.WallTimes.N()
	})
}

// telemetryOn moves node timelines on joins, leaves and allocation changes,
// and closes attempt series when an attempt reports or ends without a
// report.
func telemetryOn(c *tseries.Collector, e *event) {
	if c == nil {
		return
	}
	switch e.kind {
	case evJoin:
		n := e.w.Node
		c.NodeJoin(n.ID, monitor.Resources{Cores: n.Cores, MemoryMB: n.MemoryMB, DiskMB: n.DiskMB})
	case evLeave:
		c.NodeLeave(e.w.Node.ID)
	case evPlaced:
		c.NodeAlloc(e.a.w.Node.ID, e.a.req)
	case evReport:
		c.FinishAttempt(e.a.rec, *e.rep)
	case evAttemptDone, evStagingFailed:
		c.NodeAlloc(e.a.w.Node.ID, e.a.req.Scale(-1))
	case evLost:
		c.AbortAttempt(e.a.rec, "lost")
	case evCancelled:
		c.NodeAlloc(e.a.w.Node.ID, e.a.req.Scale(-1))
		c.AbortAttempt(e.a.rec, "cancelled")
	}
}
