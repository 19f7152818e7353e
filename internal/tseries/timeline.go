package tseries

import (
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// nodeTimeline tracks one worker node's allocated-vs-used balance over its
// connected lifetime: bounded display series for both, plus exact
// core-second integrals (advanced before every change, so they are
// independent of the display downsampling).
type nodeTimeline struct {
	id       int
	capacity monitor.Resources
	joined   sim.Time
	left     sim.Time // -1 while connected
	closed   bool

	alloc monitor.Resources // currently allocated by the master
	used  monitor.Resources // sum of live attempts' last measurements

	allocSeries *Series
	usedSeries  *Series

	lastAt     sim.Time
	capCoreSec float64
	allocCS    float64
	usedCS     float64
	allocMemS  float64 // MB-seconds, for memory waste accounting
	usedMemS   float64
}

func newNodeTimeline(id int, capacity monitor.Resources, now sim.Time, cap int) *nodeTimeline {
	n := &nodeTimeline{
		id: id, capacity: capacity, joined: now, left: -1, lastAt: now,
		allocSeries: NewSeries(cap), usedSeries: NewSeries(cap),
	}
	n.allocSeries.Add(now, monitor.Resources{}, SrcEvent)
	n.usedSeries.Add(now, monitor.Resources{}, SrcEvent)
	return n
}

// advance accrues the integrals up to now under the current levels.
func (n *nodeTimeline) advance(now sim.Time) {
	dt := float64(now - n.lastAt)
	if dt > 0 {
		n.capCoreSec += n.capacity.Cores * dt
		n.allocCS += n.alloc.Cores * dt
		n.usedCS += n.used.Cores * dt
		n.allocMemS += n.alloc.MemoryMB * dt
		n.usedMemS += n.used.MemoryMB * dt
	}
	n.lastAt = now
}

// setAlloc moves the allocated level by delta (negative to release).
func (n *nodeTimeline) setAlloc(now sim.Time, delta monitor.Resources) {
	if n.closed {
		return
	}
	n.advance(now)
	n.alloc = addRes(n.alloc, delta)
	n.allocSeries.Add(now, n.alloc, SrcEvent)
}

// setUsed moves the measured-used level by delta.
func (n *nodeTimeline) setUsed(now sim.Time, delta monitor.Resources, src uint8) {
	if n.closed {
		return
	}
	n.advance(now)
	n.used = addRes(n.used, delta)
	n.usedSeries.Add(now, n.used, src)
}

// close ends the node's lifetime; later updates are ignored (attempts on a
// removed worker report through their own abort paths).
func (n *nodeTimeline) close(now sim.Time) {
	if n.closed {
		return
	}
	n.advance(now)
	n.closed = true
	n.left = now
	n.alloc = monitor.Resources{}
	n.used = monitor.Resources{}
	n.allocSeries.Add(now, n.alloc, SrcEvent)
	n.usedSeries.Add(now, n.used, SrcEvent)
}

// finalize closes the books at run end without marking the node left.
func (n *nodeTimeline) finalize(now sim.Time) {
	n.advance(now)
}

func addRes(a, b monitor.Resources) monitor.Resources {
	r := monitor.Resources{
		Cores:    a.Cores + b.Cores,
		MemoryMB: a.MemoryMB + b.MemoryMB,
		DiskMB:   a.DiskMB + b.DiskMB,
	}
	// Clamp float drift at release so an empty node reads exactly zero.
	if r.Cores < 1e-9 && r.Cores > -1e-9 {
		r.Cores = 0
	}
	if r.MemoryMB < 1e-6 && r.MemoryMB > -1e-6 {
		r.MemoryMB = 0
	}
	if r.DiskMB < 1e-6 && r.DiskMB > -1e-6 {
		r.DiskMB = 0
	}
	return r
}

func negRes(r monitor.Resources) monitor.Resources {
	return monitor.Resources{Cores: -r.Cores, MemoryMB: -r.MemoryMB, DiskMB: -r.DiskMB}
}

// NodeSummary is one node's exported utilization timeline.
type NodeSummary struct {
	Node     int               `json:"node"`
	Capacity monitor.Resources `json:"capacity"`
	Joined   sim.Time          `json:"joined"`
	// Left is -1 when the node stayed connected to the end of the run.
	Left sim.Time `json:"left"`
	// ProvisionedCoreSeconds/AllocatedCoreSeconds/UsedCoreSeconds are exact
	// integrals over the node's lifetime (not derived from the downsampled
	// display series).
	ProvisionedCoreSeconds float64 `json:"provisioned_core_seconds"`
	AllocatedCoreSeconds   float64 `json:"allocated_core_seconds"`
	UsedCoreSeconds        float64 `json:"used_core_seconds"`
	AllocatedMemMBSeconds  float64 `json:"allocated_mem_mb_seconds"`
	UsedMemMBSeconds       float64 `json:"used_mem_mb_seconds"`
	// Alloc and Used are the bounded display timelines (delta-encoded).
	Alloc []Point `json:"alloc"`
	Used  []Point `json:"used"`
}

// summary renders the node's export. It hands the node's series buffers
// over to the summary rather than copying them, and closes the timeline,
// whose series are gone: later updates to it are ignored.
func (n *nodeTimeline) summary() *NodeSummary {
	ns := &NodeSummary{
		Node:                   n.id,
		Capacity:               n.capacity,
		Joined:                 n.joined,
		Left:                   n.left,
		ProvisionedCoreSeconds: n.capCoreSec,
		AllocatedCoreSeconds:   n.allocCS,
		UsedCoreSeconds:        n.usedCS,
		AllocatedMemMBSeconds:  n.allocMemS,
		UsedMemMBSeconds:       n.usedMemS,
		Alloc:                  n.allocSeries.take(),
		Used:                   n.usedSeries.take(),
	}
	n.allocSeries, n.usedSeries, n.closed = nil, nil, true
	return ns
}

// UtilizationSummary is the run-level waste/packing roll-up over all nodes,
// the paper's Fig.-9-style analysis from recorded data.
type UtilizationSummary struct {
	// ProvisionedCoreSeconds is capacity integrated over node lifetimes;
	// AllocatedCoreSeconds what the master reserved on them;
	// UsedCoreSeconds what the monitors actually measured in use.
	ProvisionedCoreSeconds float64 `json:"provisioned_core_seconds"`
	AllocatedCoreSeconds   float64 `json:"allocated_core_seconds"`
	UsedCoreSeconds        float64 `json:"used_core_seconds"`
	AllocatedMemMBSeconds  float64 `json:"allocated_mem_mb_seconds"`
	UsedMemMBSeconds       float64 `json:"used_mem_mb_seconds"`
	// AllocatedFraction = allocated/provisioned: how much of the pool the
	// scheduler managed to pack.
	AllocatedFraction float64 `json:"allocated_fraction"`
	// UsedFraction = used/provisioned: how much of the pool did real work.
	UsedFraction float64 `json:"used_fraction"`
	// WasteFraction = (allocated-used)/provisioned: capacity reserved but
	// idle — what tighter labels win back.
	WasteFraction float64 `json:"waste_fraction"`
	// MemWasteFraction is the same ratio for memory MB-seconds, relative to
	// allocated (labels drive memory reservations, not the pool size).
	MemWasteFraction float64 `json:"mem_waste_fraction"`
	// PackingEfficiency = used/allocated: of what was reserved, how much was
	// exercised.
	PackingEfficiency float64 `json:"packing_efficiency"`
}

func summarizeUtilization(nodes []*NodeSummary) UtilizationSummary {
	var u UtilizationSummary
	for _, n := range nodes {
		u.ProvisionedCoreSeconds += n.ProvisionedCoreSeconds
		u.AllocatedCoreSeconds += n.AllocatedCoreSeconds
		u.UsedCoreSeconds += n.UsedCoreSeconds
		u.AllocatedMemMBSeconds += n.AllocatedMemMBSeconds
		u.UsedMemMBSeconds += n.UsedMemMBSeconds
	}
	if u.ProvisionedCoreSeconds > 0 {
		u.AllocatedFraction = u.AllocatedCoreSeconds / u.ProvisionedCoreSeconds
		u.UsedFraction = u.UsedCoreSeconds / u.ProvisionedCoreSeconds
		u.WasteFraction = (u.AllocatedCoreSeconds - u.UsedCoreSeconds) / u.ProvisionedCoreSeconds
	}
	if u.AllocatedCoreSeconds > 0 {
		u.PackingEfficiency = u.UsedCoreSeconds / u.AllocatedCoreSeconds
	}
	if u.AllocatedMemMBSeconds > 0 {
		u.MemWasteFraction = (u.AllocatedMemMBSeconds - u.UsedMemMBSeconds) / u.AllocatedMemMBSeconds
	}
	return u
}
