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
	// AnomalyFlatline flags an attempt whose usage has been frozen well past
	// its category's typical wall time — a hung straggler by the data.
	AnomalyFlatline = "flatline"
)

// AnomalyConfig tunes the online detector. Both heuristics are conservative
// by default: workload phases are piecewise-constant, so a flatline alone
// means nothing until the attempt has also outlived its category's mean wall
// time by a comfortable factor.
type AnomalyConfig struct {
	// Disable turns the detector off entirely.
	Disable bool
	// LeakWindow is how many consecutive non-decreasing memory measurements
	// are needed before a leak can be flagged. Default 8.
	LeakWindow int
	// LeakSlopeMBps is the minimum sustained growth rate. Default 1 MB/s.
	LeakSlopeMBps float64
	// LeakMinGrowthMB is the minimum total growth over the window, so slow
	// creep below the noise floor is not flagged. Default 64 MB.
	LeakMinGrowthMB float64
	// FlatlineAfter is the minimum duration usage must be frozen. Default 30s.
	FlatlineAfter sim.Time
	// FlatlineMeanFactor gates flatline on attempt age relative to the
	// category's mean wall time (constant-usage tasks are flat by nature).
	// Default 2.
	FlatlineMeanFactor float64
	// FlatlineMinSamples is how many completed attempts the category needs
	// before its mean is trusted. Default 3.
	FlatlineMinSamples int
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
	if a.FlatlineAfter <= 0 {
		a.FlatlineAfter = 30 * sim.Second
	}
	if a.FlatlineMeanFactor <= 0 {
		a.FlatlineMeanFactor = 2
	}
	if a.FlatlineMinSamples <= 0 {
		a.FlatlineMinSamples = 3
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

// flatState tracks the usage-flatline detector for one attempt.
type flatState struct {
	have    bool
	lastU   monitor.Resources
	since   sim.Time // start of the current frozen stretch
	flagged bool
}

func (f *flatState) observe(at sim.Time, u monitor.Resources) {
	if !f.have || u != f.lastU {
		f.have = true
		f.lastU = u
		f.since = at
	}
}

// flatFor reports how long usage has been frozen as of now.
func (f *flatState) flatFor(now sim.Time) sim.Time {
	if !f.have {
		return 0
	}
	return now - f.since
}
