package tseries

import (
	"fmt"

	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// Anomaly kinds.
const (
	// AnomalyMemLeak flags monotone memory growth sustained long and steep
	// enough to look like a leak rather than a phase change.
	AnomalyMemLeak = "mem-leak"
	// AnomalyFlatline records an attempt the master's speculation scan found
	// flatlined: its measured usage frozen for 30 s while it has run twice
	// its category's mean wall time — a hung straggler by the data.
	AnomalyFlatline = "flatline"
)

// AnomalyConfig tunes the online leak detector. It is conservative by
// default: workload phases are piecewise-constant, so growth must be
// sustained and steep before it looks like a leak.
type AnomalyConfig struct {
	// Disable stops recording anomalies of either kind. It changes no
	// decision of the run.
	Disable bool
	// LeakWindow is how many consecutive non-decreasing memory measurements
	// are needed before a leak can be flagged. Default 8.
	LeakWindow int
	// LeakSlopeMBps is the minimum sustained growth rate. Default 1 MB/s.
	LeakSlopeMBps float64
	// LeakMinGrowthMB is the minimum total growth over the window, so slow
	// creep below the noise floor is not flagged. Default 64 MB.
	LeakMinGrowthMB float64
}

func (a *AnomalyConfig) fillDefaults() {
	if a.LeakWindow <= 0 {
		a.LeakWindow = 8
	}
	if a.LeakSlopeMBps <= 0 {
		a.LeakSlopeMBps = 1
	}
	if a.LeakMinGrowthMB <= 0 {
		a.LeakMinGrowthMB = 64
	}
}

// Anomaly is one detector finding.
type Anomaly struct {
	// Kind is AnomalyMemLeak or AnomalyFlatline.
	Kind string `json:"kind"`
	// Task, Attempt, Category, and Node identify the flagged attempt.
	Task     int    `json:"task"`
	Attempt  int    `json:"attempt"`
	Category string `json:"category,omitempty"`
	Node     int    `json:"node"`
	// At is when the detector fired.
	At sim.Time `json:"at"`
	// Detail is a human-readable account of the evidence.
	Detail string `json:"detail"`

	seq int // the attempt's start order, for Finalize's sort
}

// leakState tracks the monotone-growth detector for one attempt.
type leakState struct {
	samples  int      // consecutive non-decreasing memory measurements
	baseMB   float64  // memory at the start of the monotone run
	baseAt   sim.Time // when the run started
	lastMB   float64
	flagged  bool
	haveBase bool
}

// observe advances the detector with one measurement and reports whether a
// leak should be flagged now (at most once per attempt).
func (l *leakState) observe(cfg *AnomalyConfig, at sim.Time, u monitor.Resources) (fire bool, detail string) {
	m := u.MemoryMB
	if !l.haveBase || m < l.lastMB-1e-9 {
		// First sample, or growth broke: restart the monotone run here.
		l.haveBase = true
		l.samples = 1
		l.baseMB = m
		l.baseAt = at
		l.lastMB = m
		return false, ""
	}
	if m > l.lastMB+1e-9 {
		l.samples++
	}
	l.lastMB = m
	if l.flagged || l.samples < cfg.LeakWindow {
		return false, ""
	}
	growth := m - l.baseMB
	dur := float64(at - l.baseAt)
	if growth < cfg.LeakMinGrowthMB || dur <= 0 {
		return false, ""
	}
	slope := growth / dur
	if slope < cfg.LeakSlopeMBps {
		return false, ""
	}
	l.flagged = true
	return true, fmt.Sprintf("memory +%.0fMB over %.0fs (%.1f MB/s, %d monotone samples)",
		growth, dur, slope, l.samples)
}
