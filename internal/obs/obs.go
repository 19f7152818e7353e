// Package obs is the streaming observability plane of the simulator: a
// deterministic, sim-clock-driven snapshot bus that assembles the run's
// instantaneous state — queue depth, running/blocked/speculating tasks,
// pool utilization, scheduler-round deltas, chaos and quarantine state,
// and per-category scheduling (submit→placement) and end-to-end
// (submit→completion) latency quantiles — into bounded ring buffers and,
// optionally, a JSONL stream and a live dashboard.
//
// The bus never schedules simulation events. It is purely push-driven: the
// master (and, through it, the chaos engine and the telemetry collector)
// calls a bus mutator whenever observable state changes, and each mutator
// first seals every snapshot boundary the simulation clock has crossed
// since the previous call, then applies its own delta. A snapshot at
// boundary B therefore reflects exactly the pushes with timestamp ≤ B, no
// matter how call sites interleave within an event round. Because nothing
// is scheduled and no caller-visible state is touched, an obs-enabled run
// is behavior-neutral: outcomes, placements, and traces are byte-identical
// to an obs-off run, and two same-seed runs emit byte-identical streams.
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

// Truth is the master's ground-truth view of the counters the bus tracks,
// used by CheckConsistency.
type Truth struct {
	QueueDepth         int
	Blocked            int
	Running            int
	Speculating        int
	WorkersAlive       int
	WorkersQuarantined int
	PoolCores          float64
	AllocatedCores     float64
	Submitted          int
	Completed          int
	Failed             int
}

// ServeTruth is the serving frontend's ground-truth counters, compared by
// CheckConsistency when a frontend is attached.
type ServeTruth struct {
	Offered       int
	Shed          int
	Rejected      int
	Throttled     int
	Backpressured int
}

// Bus accumulates pushed state changes and seals them into snapshots at
// cadence boundaries. Construct with NewBus; every mutator is safe on a
// nil bus, so instrumented call sites need no guards.
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

	// Live pushed counters; see the mutators for semantics.
	queueDepth, blocked, running, speculating int
	submitted, completed, failed, retries     int
	workersAlive, workersQuarantined          int
	quarantineTrips                           int
	poolCores, allocCores                     float64
	chaosInjected, anomalies                  int
	recent                                    []ChaosEvent
	offered, shedTasks, rejectedTasks         int
	throttledTasks, backpressured             int

	schedCum  SchedDelta // cumulative scheduler-round work
	schedPrev SchedDelta // value at the previously built snapshot

	sched, e2e *metrics.Histogram
	catOrder   []string
	cats       map[string]*catAgg

	latest     *Snapshot
	final      *Snapshot
	truth      func() Truth
	serveTruth func() ServeTruth
}

// NewBus returns a bus sealing snapshots of eng's simulation at cfg's
// cadence. A nil cfg uses defaults. When cfg.Stream is set the header
// line is written immediately.
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
	return b, nil
}

// SetTruth installs the ground-truth closure CheckConsistency compares
// the pushed counters against. The master installs it on attach.
func (b *Bus) SetTruth(fn func() Truth) {
	if b == nil {
		return
	}
	b.truth = fn
}

// SetServeTruth installs the serving frontend's ground-truth closure; the
// frontend installs it on attach.
func (b *Bus) SetServeTruth(fn func() ServeTruth) {
	if b == nil {
		return
	}
	b.serveTruth = fn
}

// advance seals every boundary the clock has crossed. A boundary B seals
// once some push arrives with timestamp strictly after B, so events at
// exactly B are included in snapshot(B).
func (b *Bus) advance(now sim.Time) {
	for b.next < now {
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

// build assembles the snapshot for one boundary from the pushed counters.
func (b *Bus) build(at sim.Time, seq int) *Snapshot {
	s := &Snapshot{
		Seq: seq, At: at,
		QueueDepth: b.queueDepth, Blocked: b.blocked,
		Running: b.running, Speculating: b.speculating,
		Submitted: b.submitted, Completed: b.completed,
		Failed: b.failed, Retries: b.retries,
		WorkersAlive:       b.workersAlive,
		WorkersQuarantined: b.workersQuarantined,
		QuarantineTrips:    b.quarantineTrips,
		PoolCores:          b.poolCores,
		AllocatedCores:     b.allocCores,
		Sched: SchedDelta{
			Passes:     b.schedCum.Passes - b.schedPrev.Passes,
			Tasks:      b.schedCum.Tasks - b.schedPrev.Tasks,
			Candidates: b.schedCum.Candidates - b.schedPrev.Candidates,
			Wakes:      b.schedCum.Wakes - b.schedPrev.Wakes,
		},
		ChaosInjected: b.chaosInjected,
		Anomalies:     b.anomalies,
		Offered:       b.offered,
		Shed:          b.shedTasks,
		Rejected:      b.rejectedTasks,
		Throttled:     b.throttledTasks,
		Backpressured: b.backpressured,
		SchedLatency:  Summarize(b.sched),
		E2ELatency:    Summarize(b.e2e),
	}
	if b.poolCores > 0 {
		s.Utilization = b.allocCores / b.poolCores
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
	b.schedPrev = b.schedCum
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

// TaskSubmitted records one submission.
func (b *Bus) TaskSubmitted() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.submitted++
}

// TaskReady records a task entering the scheduler's queue (first
// submission or retry requeue). Blocked tasks stay counted in QueueDepth
// until placed.
func (b *Bus) TaskReady() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.queueDepth++
}

// TaskBlocked records the indexed matcher parking a queued task behind an
// unfinished category strategy; the task remains in QueueDepth.
func (b *Bus) TaskBlocked() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.blocked++
}

// TaskUnblocked reverses TaskBlocked.
func (b *Bus) TaskUnblocked() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.blocked--
}

// TaskPlaced records an attempt start. Non-speculative placements leave
// the queue and, on the task's first attempt, record `waited` (submit →
// placement) as scheduling latency; speculative copies only bump the
// speculation count.
func (b *Bus) TaskPlaced(category string, speculative bool, attempts int, waited sim.Time) {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	if speculative {
		b.speculating++
		return
	}
	b.queueDepth--
	b.running++
	if attempts == 1 {
		b.sched.Observe(float64(waited))
		b.cat(category).sched.Observe(float64(waited))
	}
}

// AttemptEnded records an attempt reaching any terminal state —
// completion, staging failure, loss with its worker, or speculation-race
// cancellation.
func (b *Bus) AttemptEnded(speculative bool) {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	if speculative {
		b.speculating--
	} else {
		b.running--
	}
}

// TaskFinished records a task completing. Successful tasks record their
// end-to-end (submit → completion) latency; failures only count.
func (b *Bus) TaskFinished(category string, failed bool, elapsed sim.Time) {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	if failed {
		b.failed++
		return
	}
	b.completed++
	b.e2e.Observe(float64(elapsed))
	b.cat(category).e2e.Observe(float64(elapsed))
}

// RetryCharged records a failed attempt being requeued.
func (b *Bus) RetryCharged() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.retries++
}

// WorkerJoined records a worker connecting with the given cores.
func (b *Bus) WorkerJoined(cores float64) {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.workersAlive++
	b.poolCores += cores
}

// WorkerLeft records a worker departing (drain, crash, or churn),
// releasing its cores and whatever allocation it still held.
func (b *Bus) WorkerLeft(cores, allocated float64, quarantined bool) {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.workersAlive--
	b.poolCores -= cores
	b.allocCores -= allocated
	if quarantined {
		b.workersQuarantined--
	}
}

// AllocCores shifts the pool's allocated-core level (positive on
// placement, negative on release).
func (b *Bus) AllocCores(delta float64) {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.allocCores += delta
}

// WorkerQuarantined records the quarantine breaker tripping on a worker.
func (b *Bus) WorkerQuarantined() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.workersQuarantined++
	b.quarantineTrips++
}

// WorkerUnquarantined records a quarantine lifting (probation expiry or
// drain).
func (b *Bus) WorkerUnquarantined() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.workersQuarantined--
}

// SchedRound records one matching pass and its work counters.
func (b *Bus) SchedRound(tasks, candidates, wakes int) {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.schedCum.Passes++
	b.schedCum.Tasks += int64(tasks)
	b.schedCum.Candidates += int64(candidates)
	b.schedCum.Wakes += int64(wakes)
}

// ChaosInjected records one fault injection and keeps it on the recent
// events ticker.
func (b *Bus) ChaosInjected(kind string) {
	if b == nil {
		return
	}
	now := b.eng.Now()
	b.advance(now)
	b.chaosInjected++
	if len(b.recent) >= tickerCap {
		copy(b.recent, b.recent[1:])
		b.recent = b.recent[:tickerCap-1]
	}
	b.recent = append(b.recent, ChaosEvent{At: now, Kind: kind})
}

// ServeOffered records one open-loop arrival offered to the serving
// frontend's admission pipeline.
func (b *Bus) ServeOffered() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.offered++
}

// ServeShed records the shed band dropping an offer (graceful degradation).
func (b *Bus) ServeShed() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.shedTasks++
}

// ServeRejected records the hard intake bound rejecting an offer.
func (b *Bus) ServeRejected() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.rejectedTasks++
}

// ServeThrottled records a tenant's token bucket dropping an offer.
func (b *Bus) ServeThrottled() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.throttledTasks++
}

// ServeBackpressured records a cooperative tenant being paused instead of
// dropped.
func (b *Bus) ServeBackpressured() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.backpressured++
}

// AnomalyFlagged records the telemetry layer flagging a leak/flatline
// anomaly.
func (b *Bus) AnomalyFlagged() {
	if b == nil {
		return
	}
	b.advance(b.eng.Now())
	b.anomalies++
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
	for b.next <= end {
		b.seal(b.next)
		b.next += b.cadence
	}
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

// CheckConsistency compares the pushed counters against the master's
// ground truth. It is exact at quiescence (where the invariant checker
// runs); mid-run, attempts stranded on a just-removed worker are counted
// by the bus until their staging resolves. No-op without a truth closure.
func (b *Bus) CheckConsistency() error {
	if b == nil || b.truth == nil {
		return nil
	}
	t := b.truth()
	type pair struct {
		name      string
		got, want int
	}
	for _, p := range []pair{
		{"queue depth", b.queueDepth, t.QueueDepth},
		{"blocked", b.blocked, t.Blocked},
		{"running", b.running, t.Running},
		{"speculating", b.speculating, t.Speculating},
		{"workers alive", b.workersAlive, t.WorkersAlive},
		{"workers quarantined", b.workersQuarantined, t.WorkersQuarantined},
		{"submitted", b.submitted, t.Submitted},
		{"completed", b.completed, t.Completed},
		{"failed", b.failed, t.Failed},
	} {
		if p.got != p.want {
			return fmt.Errorf("obs: %s drifted: bus has %d, master has %d", p.name, p.got, p.want)
		}
	}
	if math.Abs(b.poolCores-t.PoolCores) > 1e-6 {
		return fmt.Errorf("obs: pool cores drifted: bus has %g, master has %g", b.poolCores, t.PoolCores)
	}
	if math.Abs(b.allocCores-t.AllocatedCores) > 1e-6 {
		return fmt.Errorf("obs: allocated cores drifted: bus has %g, master has %g", b.allocCores, t.AllocatedCores)
	}
	if b.serveTruth != nil {
		st := b.serveTruth()
		for _, p := range []pair{
			{"offered", b.offered, st.Offered},
			{"shed", b.shedTasks, st.Shed},
			{"rejected", b.rejectedTasks, st.Rejected},
			{"throttled", b.throttledTasks, st.Throttled},
			{"backpressured", b.backpressured, st.Backpressured},
		} {
			if p.got != p.want {
				return fmt.Errorf("obs: serving %s drifted: bus has %d, frontend has %d", p.name, p.got, p.want)
			}
		}
	}
	return nil
}
