package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source with the distribution helpers the
// workload models need. It wraps math/rand so that every simulation run with
// the same seed produces byte-identical results.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent generator from this one. Models use Fork to
// give each entity its own stream so that adding events to one entity does
// not perturb the draws seen by another.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform draw in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// UniformTime returns a uniform Time draw in [lo,hi).
func (g *RNG) UniformTime(lo, hi Time) Time {
	return Time(g.Uniform(float64(lo), float64(hi)))
}

// Normal returns a normal draw with the given mean and standard deviation.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// TruncNormal returns a normal draw clamped to [lo,hi]. It is the workhorse
// for "roughly X, varying a bit" resource profiles.
func (g *RNG) TruncNormal(mean, std, lo, hi float64) float64 {
	v := g.Normal(mean, std)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Exponential returns an exponential draw with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Pareto returns a bounded Pareto draw in [lo, hi] with tail index alpha.
// Heavy-tailed resource usage (e.g. VEP memory in the genomics pipeline) is
// modeled with this distribution.
func (g *RNG) Pareto(alpha, lo, hi float64) float64 {
	u := g.r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}
