package tseries

import (
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// nodeTimeline tracks one worker node's allocated-vs-used balance over its
// connected lifetime: bounded display series for both, plus exact
// core-second integrals. The allocated side moves live, its integrals
// advanced before every change, so they are independent of the display
// downsampling. The used side comes from the node's attempts, whose
// measurements arrive as the monitor folds them rather than in time order:
// each attempt adds its own exact integrals when it closes, and Finalize
// merges the attempts' series into the used display series (mergeUsed).
type nodeTimeline struct {
	id       int
	idx      int // position in Collector.timelines
	capacity monitor.Resources
	joined   sim.Time
	left     sim.Time // -1 while connected
	closed   bool

	alloc monitor.Resources // currently allocated by the master

	allocSeries *Series
	usedSeries  *Series

	lastAt     sim.Time
	capCoreSec float64
	allocCS    float64
	usedCS     float64
	allocMemS  float64 // MB-seconds, for memory waste accounting
	usedMemS   float64
}

func newNodeTimeline(id, idx int, capacity monitor.Resources, now sim.Time, cap int) *nodeTimeline {
	n := &nodeTimeline{
		id: id, idx: idx, capacity: capacity, joined: now, left: -1, lastAt: now,
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
		n.allocMemS += n.alloc.MemoryMB * dt
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

// usedCursor walks one attempt's series during mergeUsed: its next step
// is point k of the series, taken as the attempt's level from its own time
// on, or, at k == len(Series), the attempt's release at its end.
type usedCursor struct {
	a    *AttemptSummary
	seq  int // the attempt's start order
	k    int
	at   sim.Time          // the next step's time
	prev monitor.Resources // the attempt's level before it
}

// before orders cursors by their next step: by time, then start order.
func (c *usedCursor) before(o *usedCursor) bool {
	return c.at < o.at || c.at == o.at && c.seq < o.seq
}

// mergeUsed builds the node's used display series from its attempts'
// series (attempts[i] for each i in idx, in start order): each point is
// its attempt's level from its own time on and each attempt's end its
// release, the steps go in (time, attempt start order) order, and the
// level is their running sum. A node that left takes the steps up to its
// leaving and then reads zero. The merge keeps a min-heap of cursors over
// the attempts in progress, and an attempt joins it once the merge reaches
// its start, before which it has no step. h is scratch space, returned for
// reuse.
func (n *nodeTimeline) mergeUsed(attempts []AttemptSummary, placed []placement, idx []int, h []usedCursor) []usedCursor {
	h = h[:0]
	down := func(i int) {
		for {
			m := i
			for _, c := range []int{2*i + 1, 2*i + 2} {
				if c < len(h) && h[c].before(&h[m]) {
					m = c
				}
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	var used monitor.Resources
	for {
		for len(idx) > 0 && (len(h) == 0 || attempts[idx[0]].Start <= h[0].at) {
			if a := &attempts[idx[0]]; len(a.Series) > 0 {
				h = append(h, usedCursor{a: a, seq: placed[idx[0]].seq, at: a.Start + a.Series[0].DT})
				for i := len(h) - 1; i > 0 && h[i].before(&h[(i-1)/2]); i = (i - 1) / 2 {
					h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
				}
			}
			idx = idx[1:]
		}
		if len(h) == 0 || n.left >= 0 && h[0].at > n.left {
			break
		}
		c := &h[0]
		if c.k < len(c.a.Series) {
			p := c.a.Series[c.k]
			used = addRes(used, addRes(p.U, negRes(c.prev)))
			n.usedSeries.Add(c.at, used, p.Src)
			c.prev = p.U
		} else {
			used = addRes(used, negRes(c.prev))
			n.usedSeries.Add(c.at, used, SrcEvent)
		}
		c.k++
		switch {
		case c.k < len(c.a.Series):
			c.at += c.a.Series[c.k].DT
		case c.k == len(c.a.Series):
			c.at = c.a.End
		default:
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	if n.left >= 0 {
		n.usedSeries.Add(n.left, monitor.Resources{}, SrcEvent)
	}
	return h
}

// close ends the node's lifetime; later allocation updates are ignored
// (attempts on a removed worker report through their own abort paths).
func (n *nodeTimeline) close(now sim.Time) {
	if n.closed {
		return
	}
	n.advance(now)
	n.closed = true
	n.left = now
	n.alloc = monitor.Resources{}
	n.allocSeries.Add(now, n.alloc, SrcEvent)
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
