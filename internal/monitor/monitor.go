// Package monitor implements the lightweight function monitor (LFM) of the
// paper's §VI-B1 over simulated process trees: each task runs as a forked
// process (with possible children), and the monitor measures its resource
// consumption with two techniques — periodic polling of process state (the
// /proc analogue) and process creation/exit events (the LD_PRELOAD fork/exit
// interposition analogue). If a task exceeds its resource limits the monitor
// kills it without disturbing the hosting interpreter, and reports measured
// consumption either way.
package monitor

import (
	"fmt"
	"math"

	"lfm/internal/sim"
)

// Resources is a resource vector: fractional cores, memory, and disk.
type Resources struct {
	Cores    float64
	MemoryMB float64
	DiskMB   float64
}

// Add returns r + o componentwise.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.Cores + o.Cores, r.MemoryMB + o.MemoryMB, r.DiskMB + o.DiskMB}
}

// Max returns the componentwise maximum of r and o.
func (r Resources) Max(o Resources) Resources {
	return Resources{
		maxf(r.Cores, o.Cores),
		maxf(r.MemoryMB, o.MemoryMB),
		maxf(r.DiskMB, o.DiskMB),
	}
}

// Fits reports whether r fits within capacity c componentwise.
func (r Resources) Fits(c Resources) bool {
	return r.Cores <= c.Cores+1e-9 && r.MemoryMB <= c.MemoryMB+1e-9 && r.DiskMB <= c.DiskMB+1e-9
}

// Scale returns r scaled by f componentwise.
func (r Resources) Scale(f float64) Resources {
	return Resources{r.Cores * f, r.MemoryMB * f, r.DiskMB * f}
}

func (r Resources) String() string {
	return fmt.Sprintf("{cores %.2g, mem %.0fMB, disk %.0fMB}", r.Cores, r.MemoryMB, r.DiskMB)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Kind names one resource dimension.
type Kind string

// Resource dimensions subject to limits.
const (
	KindNone   Kind = ""
	KindCores  Kind = "cores"
	KindMemory Kind = "memory"
	KindDisk   Kind = "disk"
)

// Exceeds reports the first dimension in which r exceeds the limit l.
// Zero-valued limit dimensions are unlimited.
func Exceeds(r, l Resources) Kind {
	if l.MemoryMB > 0 && r.MemoryMB > l.MemoryMB+1e-9 {
		return KindMemory
	}
	if l.DiskMB > 0 && r.DiskMB > l.DiskMB+1e-9 {
		return KindDisk
	}
	if l.Cores > 0 && r.Cores > l.Cores+1e-9 {
		return KindCores
	}
	return KindNone
}

// Phase is one piecewise-constant segment of a process's resource usage.
type Phase struct {
	Duration sim.Time
	Usage    Resources
}

// ChildSpec is a process forked by its parent at a start offset.
type ChildSpec struct {
	StartOffset sim.Time
	Spec        ProcSpec
}

// ProcSpec describes a synthetic task process: its own usage phases plus any
// children it forks. It is the ground truth the monitor observes through
// polling and events.
type ProcSpec struct {
	Phases   []Phase
	Children []ChildSpec
}

// Proc builds a single-phase process, the common case.
func Proc(d sim.Time, u Resources) ProcSpec {
	return ProcSpec{Phases: []Phase{{Duration: d, Usage: u}}}
}

// SelfDuration is the duration of the process's own phases.
func (p ProcSpec) SelfDuration() sim.Time {
	var d sim.Time
	for _, ph := range p.Phases {
		d += ph.Duration
	}
	return d
}

// Duration is the lifetime of the whole tree: a parent that exits while a
// child still runs still counts until the child exits (the LFM must track
// orphaned grandchildren — this is why the paper preloads fork/exit hooks).
func (p ProcSpec) Duration() sim.Time {
	d := p.SelfDuration()
	for _, c := range p.Children {
		if end := c.StartOffset + c.Spec.Duration(); end > d {
			d = end
		}
	}
	return d
}

// UsageAt returns the tree's total usage at offset t from process start.
func (p ProcSpec) UsageAt(t sim.Time) Resources {
	var u Resources
	if t >= 0 {
		var acc sim.Time
		for _, ph := range p.Phases {
			if t < acc+ph.Duration {
				u = u.Add(ph.Usage)
				break
			}
			acc += ph.Duration
		}
	}
	for _, c := range p.Children {
		if t >= c.StartOffset {
			u = u.Add(c.Spec.UsageAt(t - c.StartOffset))
		}
	}
	return u
}

// ScaleTime returns a deep copy of the spec with every duration and fork
// offset stretched by factor — the same work on a straggling (k-times
// slower) node. Usage levels are unchanged. Factors <= 1 return the spec
// as-is.
func (p ProcSpec) ScaleTime(factor float64) ProcSpec {
	if factor <= 1 {
		return p
	}
	out := ProcSpec{
		Phases:   make([]Phase, len(p.Phases)),
		Children: make([]ChildSpec, len(p.Children)),
	}
	for i, ph := range p.Phases {
		out.Phases[i] = Phase{Duration: sim.Time(float64(ph.Duration) * factor), Usage: ph.Usage}
	}
	for i, c := range p.Children {
		out.Children[i] = ChildSpec{
			StartOffset: sim.Time(float64(c.StartOffset) * factor),
			Spec:        c.Spec.ScaleTime(factor),
		}
	}
	if len(out.Children) == 0 {
		out.Children = nil
	}
	if len(out.Phases) == 0 {
		out.Phases = nil
	}
	return out
}

// TruePeak returns the exact peak usage over the tree's lifetime — oracle
// knowledge available to the simulator but not to any realistic monitor.
func (p ProcSpec) TruePeak() Resources {
	var peak Resources
	for _, t := range p.eventTimes(0) {
		peak = peak.Max(p.UsageAt(t))
	}
	return peak
}

// peakBound returns an upper bound on the tree's usage at any instant: each
// process's largest phase, summed over the tree. Unlike TruePeak it
// allocates nothing, so the walker can test every run against it.
func (p ProcSpec) peakBound() Resources {
	var u Resources
	for _, ph := range p.Phases {
		u = u.Max(ph.Usage)
	}
	for _, c := range p.Children {
		u = u.Add(c.Spec.peakBound())
	}
	return u
}

// eventTimes lists every offset at which the tree's usage can change.
func (p ProcSpec) eventTimes(base sim.Time) []sim.Time {
	var ts []sim.Time
	acc := base
	ts = append(ts, acc)
	for _, ph := range p.Phases {
		acc += ph.Duration
		ts = append(ts, acc)
	}
	for _, c := range p.Children {
		ts = append(ts, c.Spec.eventTimes(base+c.StartOffset)...)
	}
	return ts
}

// nextProcEvent returns the earliest fork or exit of the tree started at
// base that falls after at, summed as the monitor schedules them, or +Inf.
func (p ProcSpec) nextProcEvent(base, at sim.Time) sim.Time {
	next := sim.Time(math.Inf(1))
	for _, c := range p.Children {
		fork := base + c.StartOffset
		if fork > at {
			next = min(next, fork)
		}
		if exit := fork + c.Spec.SelfDuration(); exit > at {
			next = min(next, exit)
		}
		next = min(next, c.Spec.nextProcEvent(fork, at))
	}
	return next
}

// countProcs returns the number of processes in the tree.
func (p ProcSpec) countProcs() int {
	n := 1
	for _, c := range p.Children {
		n += c.Spec.countProcs()
	}
	return n
}
