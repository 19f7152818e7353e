package workloads

import (
	"fmt"
	"math"

	"lfm/internal/sim"
)

// Arrival is a deterministic open-loop arrival process: Next draws the gap
// to the next arrival from the process's own RNG stream. A negative gap
// means the source is exhausted (only trace replays ever exhaust). Every
// process is pure with respect to the simulation — it holds no engine
// reference and schedules nothing — so the serving frontend can pause and
// resume it freely (cooperative backpressure) without perturbing other
// tenants' draw sequences.
type Arrival interface {
	// Next returns the gap until the next arrival after an arrival at now.
	Next(now sim.Time, rng *sim.RNG) sim.Time
	// Name labels the process in reports and errors.
	Name() string
	// Validate rejects unusable parameterizations with an error naming the
	// offending field.
	Validate() error
}

// Poisson is a homogeneous Poisson process: exponentially distributed gaps
// with mean 1/Rate.
type Poisson struct {
	// Rate is the mean arrival rate in tasks per simulated second.
	Rate float64
}

// Name implements Arrival.
func (p *Poisson) Name() string { return fmt.Sprintf("poisson(%g/s)", p.Rate) }

// Validate implements Arrival.
func (p *Poisson) Validate() error {
	if math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0) || p.Rate <= 0 {
		return fmt.Errorf("workloads: poisson arrival Rate must be a positive finite rate, got %g", p.Rate)
	}
	return nil
}

// Next implements Arrival.
func (p *Poisson) Next(now sim.Time, rng *sim.RNG) sim.Time {
	return sim.Time(rng.Exponential(1 / p.Rate))
}

// Diurnal is a sinusoidally rate-modulated Poisson process — the classic
// day/night load shape. The instantaneous rate is
// Base × (1 + Amplitude×sin(2π(t+Phase)/Period)), sampled by thinning
// against the peak rate, which keeps the draw count deterministic in the
// arrival sequence.
type Diurnal struct {
	// Base is the mean arrival rate in tasks per simulated second.
	Base float64
	// Amplitude in [0,1) scales the swing around Base (0.5 means the rate
	// varies between 0.5× and 1.5× Base).
	Amplitude float64
	// Period is the cycle length (default 1 simulated hour).
	Period sim.Time
	// Phase shifts the cycle start.
	Phase sim.Time
}

// Name implements Arrival.
func (d *Diurnal) Name() string {
	return fmt.Sprintf("diurnal(%g/s ±%.0f%%)", d.Base, 100*d.Amplitude)
}

// Validate implements Arrival.
func (d *Diurnal) Validate() error {
	if math.IsNaN(d.Base) || math.IsInf(d.Base, 0) || d.Base <= 0 {
		return fmt.Errorf("workloads: diurnal arrival Base must be a positive finite rate, got %g", d.Base)
	}
	if d.Amplitude < 0 || d.Amplitude >= 1 {
		return fmt.Errorf("workloads: diurnal arrival Amplitude must be in [0,1), got %g", d.Amplitude)
	}
	if d.Period < 0 {
		return fmt.Errorf("workloads: diurnal arrival Period must be >= 0, got %g", float64(d.Period))
	}
	return nil
}

// Next implements Arrival via Lewis-Shedler thinning: candidate gaps are
// drawn at the peak rate and each candidate is accepted with probability
// rate(t)/peak.
func (d *Diurnal) Next(now sim.Time, rng *sim.RNG) sim.Time {
	period := d.Period
	if period <= 0 {
		period = sim.Hour
	}
	peak := d.Base * (1 + d.Amplitude)
	t := now
	for {
		t += sim.Time(rng.Exponential(1 / peak))
		rate := d.Base * (1 + d.Amplitude*math.Sin(2*math.Pi*float64(t+d.Phase)/float64(period)))
		if rng.Float64()*peak < rate {
			return t - now
		}
	}
}

// Burst is a two-state Markov-modulated Poisson process: calm stretches at
// BaseRate punctuated by correlated bursts at BurstRate. State dwell times
// are exponential, so bursts cluster the way stampeding clients do.
type Burst struct {
	// BaseRate is the calm-state arrival rate (tasks per second).
	BaseRate float64
	// BurstRate is the burst-state arrival rate; must be >= BaseRate.
	BurstRate float64
	// MeanCalm and MeanBurst are the mean dwell times of the two states
	// (defaults 60s and 10s).
	MeanCalm  sim.Time
	MeanBurst sim.Time

	// bursting and until are the process's current modulation state; zero
	// value starts calm with the first dwell drawn on first use.
	bursting bool
	until    sim.Time
	primed   bool
}

// Name implements Arrival.
func (b *Burst) Name() string { return fmt.Sprintf("burst(%g/s→%g/s)", b.BaseRate, b.BurstRate) }

// Validate implements Arrival.
func (b *Burst) Validate() error {
	if math.IsNaN(b.BaseRate) || math.IsInf(b.BaseRate, 0) || b.BaseRate <= 0 {
		return fmt.Errorf("workloads: burst arrival BaseRate must be a positive finite rate, got %g", b.BaseRate)
	}
	if math.IsNaN(b.BurstRate) || math.IsInf(b.BurstRate, 0) || b.BurstRate < b.BaseRate {
		return fmt.Errorf("workloads: burst arrival BurstRate must be >= BaseRate, got %g < %g", b.BurstRate, b.BaseRate)
	}
	if b.MeanCalm < 0 || math.IsNaN(float64(b.MeanCalm)) || math.IsInf(float64(b.MeanCalm), 0) {
		return fmt.Errorf("workloads: burst arrival MeanCalm dwell must be a finite duration >= 0, got %v", b.MeanCalm)
	}
	if b.MeanBurst < 0 || math.IsNaN(float64(b.MeanBurst)) || math.IsInf(float64(b.MeanBurst), 0) {
		return fmt.Errorf("workloads: burst arrival MeanBurst dwell must be a finite duration >= 0, got %v", b.MeanBurst)
	}
	return nil
}

// Next implements Arrival. Gaps are drawn at the current state's rate;
// state flips are resolved first so a gap never straddles more than the
// dwell boundaries already passed.
func (b *Burst) Next(now sim.Time, rng *sim.RNG) sim.Time {
	calm, burst := b.MeanCalm, b.MeanBurst
	if calm <= 0 {
		calm = sim.Minute
	}
	if burst <= 0 {
		burst = 10 * sim.Second
	}
	if !b.primed {
		b.primed = true
		b.until = sim.Time(rng.Exponential(float64(calm)))
	}
	for now >= b.until {
		b.bursting = !b.bursting
		dwell := calm
		if b.bursting {
			dwell = burst
		}
		b.until += sim.Time(rng.Exponential(float64(dwell)))
	}
	rate := b.BaseRate
	if b.bursting {
		rate = b.BurstRate
	}
	return sim.Time(rng.Exponential(1 / rate))
}

// TraceReplay replays a recorded sequence of inter-arrival gaps verbatim
// and then reports exhaustion (Next returns a negative gap). It draws
// nothing from the RNG, so replayed tenants never perturb other streams.
type TraceReplay struct {
	// Gaps are the inter-arrival gaps in order.
	Gaps []sim.Time

	next int
}

// Name implements Arrival.
func (t *TraceReplay) Name() string { return fmt.Sprintf("trace(%d arrivals)", len(t.Gaps)) }

// Validate implements Arrival.
func (t *TraceReplay) Validate() error {
	if len(t.Gaps) == 0 {
		return fmt.Errorf("workloads: trace arrival Gaps must hold at least one gap")
	}
	for i, g := range t.Gaps {
		if math.IsNaN(float64(g)) || math.IsInf(float64(g), 0) || g < 0 {
			return fmt.Errorf("workloads: trace arrival Gaps[%d] must be a finite non-negative gap, got %g", i, float64(g))
		}
	}
	return nil
}

// Next implements Arrival.
func (t *TraceReplay) Next(now sim.Time, rng *sim.RNG) sim.Time {
	if t.next >= len(t.Gaps) {
		return -1
	}
	g := t.Gaps[t.next]
	t.next++
	return g
}
