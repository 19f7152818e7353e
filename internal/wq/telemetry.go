package wq

import (
	"lfm/internal/monitor"
	"lfm/internal/tseries"
)

// SetTelemetry attaches a telemetry collector to the master: worker joins
// and leaves open and close node utilization timelines, every allocation
// change moves the allocated level, each executing attempt streams its
// monitor measurements (taken from the monitor's fold) into a bounded
// per-attempt series, and each attempt the speculation scan finds
// flatlined becomes an anomaly. The collector only records: no decision
// reads it. Call before submitting work; nil detaches. Runs without a
// collector pay only a nil check per transition.
func (m *Master) SetTelemetry(c *tseries.Collector) { m.telem = c }

// telemetryOn moves node timelines on joins, leaves and allocation changes,
// closes attempt series when an attempt reports or ends without a report,
// and records flatlines.
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
	case evFlatline:
		c.Flatline(e.a.rec, e.d, e.mean)
	}
}
