package main

import (
	"time"

	"lfm/internal/alloc"
	"lfm/internal/monitor"
)

// probe wraps the traced run's allocation strategy. It delegates every
// call, counts Next and Observe calls, times Next, and counts the Next
// calls that found their category unchanged since its previous Next: no
// Observe or Retry in between, so a label recomputed there could have been
// reused.
//
// The wrapper hides *alloc.Auto from core.Run's type assertions, which
// only wire Auto to a metrics registry or telemetry; no Auto workload
// attaches either, and the digest check proves the run is unchanged.
type probe struct {
	inner                   alloc.Strategy
	nextCalls, observeCalls int
	repeats                 int
	nextTime                time.Duration
	// changed maps each category seen to whether an Observe or Retry
	// arrived since its last Next.
	changed map[string]bool
}

func newProbe(inner alloc.Strategy) *probe {
	return &probe{inner: inner, changed: map[string]bool{}}
}

func (p *probe) Name() string { return p.inner.Name() }

func (p *probe) Next(category string) alloc.Decision {
	p.nextCalls++
	if changed, seen := p.changed[category]; seen && !changed {
		p.repeats++
	}
	p.changed[category] = false
	start := time.Now()
	d := p.inner.Next(category)
	p.nextTime += time.Since(start)
	return d
}

func (p *probe) Retry(category string, attempt int) alloc.Decision {
	p.changed[category] = true
	return p.inner.Retry(category, attempt)
}

func (p *probe) Observe(category string, rep monitor.Report) {
	p.observeCalls++
	p.changed[category] = true
	p.inner.Observe(category, rep)
}

// recomputeFrac is the share of Next calls that found their category
// unchanged.
func (p *probe) recomputeFrac() float64 {
	return ratio(float64(p.repeats), float64(p.nextCalls))
}
