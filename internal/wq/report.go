package wq

import (
	"fmt"
	"io"
	"sort"

	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// CategorySummary aggregates monitored behaviour for one task category —
// the per-category view the Work Queue resource monitor reports and the
// input a user would persist to preload future runs.
type CategorySummary struct {
	// Category is the task category the row aggregates.
	Category string
	// Tasks counts completed tasks; Retries counts resource-exhaustion
	// retries those tasks needed.
	Tasks   int
	Retries int
	// WallTimes collects per-attempt wall clock; PeakCores, PeakMemMB, and
	// PeakDisk collect the monitor-observed usage peaks.
	WallTimes sim.Stats
	PeakCores sim.Stats
	PeakMemMB sim.Stats
	PeakDisk  sim.Stats
}

// MaxObserved returns the componentwise maximum observed peak.
func (c *CategorySummary) MaxObserved() monitor.Resources {
	return monitor.Resources{
		Cores:    c.PeakCores.Max(),
		MemoryMB: c.PeakMemMB.Max(),
		DiskMB:   c.PeakDisk.Max(),
	}
}

// categoryTracker accumulates summaries on the master.
type categoryTracker struct {
	byCat map[string]*CategorySummary
}

func (ct *categoryTracker) observe(category string, rep *monitor.Report) {
	if ct.byCat == nil {
		ct.byCat = make(map[string]*CategorySummary)
	}
	c := ct.byCat[category]
	if c == nil {
		c = &CategorySummary{Category: category}
		ct.byCat[category] = c
	}
	if !rep.Completed {
		c.Retries++
		return
	}
	c.Tasks++
	c.WallTimes.Add(float64(rep.WallTime))
	c.PeakCores.Add(rep.Peak.Cores)
	c.PeakMemMB.Add(rep.Peak.MemoryMB)
	c.PeakDisk.Add(rep.Peak.DiskMB)
}

// CategorySummaries returns per-category aggregates sorted by name.
func (m *Master) CategorySummaries() []*CategorySummary {
	out := make([]*CategorySummary, 0, len(m.categories.byCat))
	for _, c := range m.categories.byCat {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Category < out[j].Category })
	return out
}

// WriteCategoryReport renders per-category aggregates as an aligned table.
func (m *Master) WriteCategoryReport(w io.Writer) {
	fmt.Fprintf(w, "%-18s %6s %7s %10s %10s %12s %12s\n",
		"category", "tasks", "retries", "mean wall", "max wall", "max mem MB", "max disk MB")
	for _, c := range m.CategorySummaries() {
		fmt.Fprintf(w, "%-18s %6d %7d %10s %10s %12.0f %12.0f\n",
			c.Category, c.Tasks, c.Retries,
			sim.Time(c.WallTimes.Mean()).Duration(),
			sim.Time(c.WallTimes.Max()).Duration(),
			c.PeakMemMB.Max(), c.PeakDisk.Max())
	}
}
