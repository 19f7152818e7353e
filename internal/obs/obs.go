// Package obs is the streaming observability plane of the simulator: a
// deterministic, sim-clock-driven snapshot bus that assembles the run's
// instantaneous state — queue depth, running/blocked/speculating tasks,
// pool utilization, scheduler-round deltas, chaos and quarantine state,
// and per-category scheduling (submit→placement) and end-to-end
// (submit→completion) latency quantiles — into bounded ring buffers and,
// optionally, a JSONL stream and a live dashboard.
//
// The bus samples passively, the way the paper's monitor polls /proc at a
// fixed interval instead of mirroring every change. It registers on the
// engine's clock boundaries (sim.Engine.Every): once the clock has moved
// past boundary B, the bus reads the master's and the serving frontend's
// counts through their Truth sources and seals snapshot(B), which therefore
// reflects exactly the state after every event at or before B. Only what
// no other component keeps is pushed into the bus: per-task latency
// observations and the chaos ticker. Because the bus schedules nothing and
// no decision path reads it, an obs-enabled run is behavior-neutral:
// outcomes, placements, and traces are byte-identical to an obs-off run,
// and two same-seed runs emit byte-identical streams.
//
// Memory stays bounded the same way the tseries layer bounds its series:
// when the retained ring reaches its cap, every other snapshot is dropped
// and the retention stride doubles, so the ring always spans the whole run
// at O(cap) memory. The JSONL stream, when attached, still receives every
// boundary at full fidelity.
package obs

import (
	"fmt"
	"io"
	"math"

	"lfm/internal/artifact"
	"lfm/internal/metrics"
	"lfm/internal/sim"
)

// Defaults for Config's zero values.
const (
	// DefaultCadence is the snapshot period when Config.Cadence is zero.
	DefaultCadence = 1 * sim.Second
	// DefaultRingCap is the retained-snapshot bound when Config.RingCap is
	// zero.
	DefaultRingCap = 512
	// tickerCap bounds the recent chaos-event ticker carried by snapshots.
	tickerCap = 5
)

// StreamMeta identifies the run on the stream's header line and in
// RunObs.
type StreamMeta struct {
	Workload string `json:"workload,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// Config parameterizes the snapshot bus. The zero value is usable (1s
// cadence, 512-snapshot ring, no stream).
type Config struct {
	// Cadence is the simulated-time period between snapshots. Zero means
	// DefaultCadence; negative or non-finite values fail Validate.
	Cadence sim.Time
	// RingCap bounds the snapshots retained in memory (minimum 8, default
	// DefaultRingCap). Past the cap the ring decimates: every other
	// snapshot is dropped and the retention stride doubles.
	RingCap int
	// Stream, when non-nil, receives the run as framed JSONL (see
	// ReadStream): a header line with Meta, Cadence and RingCap, one line
	// per sealed snapshot (full fidelity, never decimated), a final
	// snapshot at the makespan, then, from Close, the health line and a
	// footer counting the snapshots. Output is byte-deterministic for a
	// given seed.
	Stream io.Writer
	// OnSnapshot, when non-nil, observes every sealed snapshot — the hook
	// the lfmtop dashboard renders from. It must not mutate the snapshot
	// or call back into the simulation.
	OnSnapshot func(*Snapshot)
	// Health tunes the end-of-run health analysis; nil uses defaults.
	Health *HealthConfig
	// Meta identifies the run on the stream's header line.
	Meta StreamMeta
}

// Validate rejects non-finite or negative cadences and negative ring caps
// with a clear error. Zero values are valid and mean "use the default".
func (c *Config) Validate() error {
	f := float64(c.Cadence)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("obs: snapshot cadence must be finite, got %v", f)
	}
	if c.Cadence < 0 {
		return fmt.Errorf("obs: snapshot cadence must be >= 0, got %v", f)
	}
	if c.RingCap < 0 {
		return fmt.Errorf("obs: ring cap must be >= 0, got %d", c.RingCap)
	}
	return nil
}

// LatencyBuckets spans ~1ms to ~52h in 1.5x steps — fine enough for
// interpolated p50/p99/p999 over both sub-second placements and long
// end-to-end waits. Exported so the serving frontend's e2e histograms use
// the same buckets as the bus's.
func LatencyBuckets() []float64 { return metrics.ExpBuckets(1e-3, 1.5, 48) }

// catAgg holds one category's latency histograms.
type catAgg struct {
	sched *metrics.Histogram
	e2e   *metrics.Histogram
}

// Truth is the master's view of the counts a snapshot reports, read at
// every sealed boundary. The owner keeps each count current; the bus keeps
// no copy of its own.
type Truth struct {
	QueueDepth         int
	Blocked            int
	Running            int
	Speculating        int
	WorkersAlive       int
	WorkersQuarantined int
	QuarantineTrips    int
	PoolCores          float64
	AllocatedCores     float64
	Submitted          int
	Completed          int
	Failed             int
	Retries            int
	Anomalies          int
	// Sched is the matching work done since the run started; snapshots
	// report its growth between built snapshots.
	Sched SchedDelta
}

// ServeTruth is the serving frontend's cumulative admission counts, read
// at every sealed boundary when a frontend is attached.
type ServeTruth struct {
	Offered       int
	Shed          int
	Rejected      int
	Throttled     int
	Backpressured int
}

// Bus seals the run's state into snapshots at cadence boundaries. It reads
// the counts from its Truth and ServeTruth sources and is pushed only what
// no other component keeps: latency observations and chaos injections.
// Construct with NewBus; every method is safe on a nil bus, so
// instrumented call sites need no guards.
type Bus struct {
	eng     *sim.Engine
	cfg     Config
	cadence sim.Time
	ringCap int

	next   sim.Time // next boundary to seal
	tick   int      // boundaries sealed so far
	stride int      // ring retention stride (doubles on decimation)
	ring   []*Snapshot

	out *artifact.Writer // nil without a stream

	chaosInjected int
	recent        []ChaosEvent
	schedPrev     SchedDelta // Truth.Sched at the previously built snapshot

	sched, e2e *metrics.Histogram
	catOrder   []string
	cats       map[string]*catAgg

	latest     *Snapshot
	final      *Snapshot
	truth      func() Truth
	serveTruth func() ServeTruth
}

// NewBus returns a bus sealing snapshots of eng's simulation at cfg's
// cadence, on the engine's clock boundaries (see sim.Engine.Every). A nil
// cfg uses defaults. When cfg.Stream is set the header line is written
// immediately.
func NewBus(eng *sim.Engine, cfg *Config) (*Bus, error) {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Cadence == 0 {
		c.Cadence = DefaultCadence
	}
	if c.RingCap == 0 {
		c.RingCap = DefaultRingCap
	}
	if c.RingCap < 8 {
		c.RingCap = 8
	}
	b := &Bus{
		eng: eng, cfg: c, cadence: c.Cadence, ringCap: c.RingCap,
		stride: 1,
		sched:  metrics.NewHistogram(LatencyBuckets()),
		e2e:    metrics.NewHistogram(LatencyBuckets()),
		cats:   map[string]*catAgg{},
	}
	if c.Stream != nil {
		b.out = openStream(c.Stream, c.Meta, c.Cadence, c.RingCap)
	}
	eng.Every(c.Cadence, b.sealThrough)
	return b, nil
}

// SetTruth installs the source of the master's counts. The master
// installs it on attach.
func (b *Bus) SetTruth(fn func() Truth) {
	if b == nil {
		return
	}
	b.truth = fn
}

// SetServeTruth installs the serving frontend's count source; the
// frontend installs it on attach.
func (b *Bus) SetServeTruth(fn func() ServeTruth) {
	if b == nil {
		return
	}
	b.serveTruth = fn
}

// sealThrough seals every boundary at or before `at`. The engine calls it
// once the clock has moved past each boundary, so snapshot(B) reads the
// state after every event at or before B.
func (b *Bus) sealThrough(at sim.Time) {
	for b.next <= at {
		b.seal(b.next)
		b.next += b.cadence
	}
}

// seal closes the boundary at time `at`: builds the snapshot if anything
// would observe it (stream, dashboard hook, or ring retention — skipping
// the build otherwise keeps unobserved cadences nearly free), streams it,
// and retains it in the decimating ring.
func (b *Bus) seal(at sim.Time) {
	tick := b.tick
	b.tick++
	retain := tick%b.stride == 0
	if b.out == nil && b.cfg.OnSnapshot == nil && !retain {
		return
	}
	s := b.build(at, tick)
	b.latest = s
	if b.out != nil {
		b.out.Put("snapshot", s)
	}
	if b.cfg.OnSnapshot != nil {
		b.cfg.OnSnapshot(s)
	}
	if !retain {
		return
	}
	b.ring = append(b.ring, s)
	if len(b.ring) >= b.ringCap {
		out := b.ring[:0]
		for i := 0; i < len(b.ring); i += 2 {
			out = append(out, b.ring[i])
		}
		b.ring = out
		b.stride *= 2
	}
}

// build assembles the snapshot for one boundary from the truth sources and
// the pushed observations.
func (b *Bus) build(at sim.Time, seq int) *Snapshot {
	var t Truth
	if b.truth != nil {
		t = b.truth()
	}
	var st ServeTruth
	if b.serveTruth != nil {
		st = b.serveTruth()
	}
	s := &Snapshot{
		Seq: seq, At: at,
		QueueDepth: t.QueueDepth, Blocked: t.Blocked,
		Running: t.Running, Speculating: t.Speculating,
		Submitted: t.Submitted, Completed: t.Completed,
		Failed: t.Failed, Retries: t.Retries,
		WorkersAlive:       t.WorkersAlive,
		WorkersQuarantined: t.WorkersQuarantined,
		QuarantineTrips:    t.QuarantineTrips,
		PoolCores:          t.PoolCores,
		AllocatedCores:     t.AllocatedCores,
		Sched: SchedDelta{
			Passes:     t.Sched.Passes - b.schedPrev.Passes,
			Tasks:      t.Sched.Tasks - b.schedPrev.Tasks,
			Candidates: t.Sched.Candidates - b.schedPrev.Candidates,
			Wakes:      t.Sched.Wakes - b.schedPrev.Wakes,
		},
		ChaosInjected: b.chaosInjected,
		Anomalies:     t.Anomalies,
		Offered:       st.Offered,
		Shed:          st.Shed,
		Rejected:      st.Rejected,
		Throttled:     st.Throttled,
		Backpressured: st.Backpressured,
		SchedLatency:  Summarize(b.sched),
		E2ELatency:    Summarize(b.e2e),
	}
	if t.PoolCores > 0 {
		s.Utilization = t.AllocatedCores / t.PoolCores
	}
	if len(b.recent) > 0 {
		s.Events = append([]ChaosEvent(nil), b.recent...)
	}
	for _, cat := range b.catOrder {
		ca := b.cats[cat]
		s.Categories = append(s.Categories, CategoryLatency{
			Category: cat, Sched: Summarize(ca.sched), E2E: Summarize(ca.e2e),
		})
	}
	b.schedPrev = t.Sched
	return s
}

func (b *Bus) cat(category string) *catAgg {
	ca := b.cats[category]
	if ca == nil {
		ca = &catAgg{
			sched: metrics.NewHistogram(LatencyBuckets()),
			e2e:   metrics.NewHistogram(LatencyBuckets()),
		}
		b.cats[category] = ca
		b.catOrder = append(b.catOrder, category)
	}
	return ca
}

// TaskPlaced records `waited`, submit to placement, as scheduling latency.
// The master calls it for a task's first attempt, which a worker loss
// makes first again.
func (b *Bus) TaskPlaced(category string, waited sim.Time) {
	if b == nil {
		return
	}
	b.sched.Observe(float64(waited))
	b.cat(category).sched.Observe(float64(waited))
}

// TaskFinished records a task's successful completion, `elapsed` after its
// submission, as end-to-end latency.
func (b *Bus) TaskFinished(category string, elapsed sim.Time) {
	if b == nil {
		return
	}
	b.e2e.Observe(float64(elapsed))
	b.cat(category).e2e.Observe(float64(elapsed))
}

// ChaosInjected records one fault injection and keeps it on the recent
// events ticker.
func (b *Bus) ChaosInjected(kind string) {
	if b == nil {
		return
	}
	b.chaosInjected++
	if len(b.recent) >= tickerCap {
		copy(b.recent, b.recent[1:])
		b.recent = b.recent[:tickerCap-1]
	}
	b.recent = append(b.recent, ChaosEvent{At: b.eng.Now(), Kind: kind})
}

// Latest returns the most recently built snapshot (nil before the first
// boundary seals).
func (b *Bus) Latest() *Snapshot {
	if b == nil {
		return nil
	}
	return b.latest
}

// Finalize seals every remaining boundary up to and including `end` (the
// makespan), builds the final snapshot at exactly `end`, streams it, and
// returns the run's retained observability. The first stream write error,
// if any, is returned here.
func (b *Bus) Finalize(end sim.Time) (*RunObs, error) {
	if b == nil {
		return nil, nil
	}
	b.sealThrough(end)
	b.final = b.build(end, b.tick)
	b.latest = b.final
	if b.out != nil {
		b.out.Put("final", b.final)
	}
	ro := &RunObs{
		Meta:       b.cfg.Meta,
		Cadence:    b.cadence,
		Boundaries: b.tick,
		Stride:     b.stride,
		Snapshots:  append([]*Snapshot(nil), b.ring...),
		Final:      b.final,
	}
	if b.out == nil {
		return ro, nil
	}
	return ro, b.out.Flush()
}

// Close ends the stream after Finalize: the health line, if h is non-nil,
// then the footer counting the streamed snapshots. It reports the first
// stream error and is a no-op without a stream.
func (b *Bus) Close(h *Health) error {
	if b == nil || b.out == nil {
		return nil
	}
	return closeStream(b.out, h, b.tick)
}
