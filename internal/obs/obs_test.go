package obs

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"lfm/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Cadence: 2 * sim.Second, RingCap: 64},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{Cadence: -1},
		{Cadence: sim.Time(math.NaN())},
		{Cadence: sim.Time(math.Inf(1))},
		{Cadence: sim.Time(math.Inf(-1))},
		{RingCap: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

// TestBusBoundarySemantics checks the sealing rule: a boundary B seals on
// the first push strictly after B, and pushes at exactly t==B land in
// snapshot(B).
func TestBusBoundarySemantics(t *testing.T) {
	eng := sim.NewEngine(1)
	b, err := NewBus(eng, &Config{Cadence: 1 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(1, func() { b.TaskSubmitted(); b.TaskReady() }) // exactly on boundary 1
	eng.At(1.5, func() { b.TaskSubmitted(); b.TaskReady() })
	eng.At(2.5, func() {})
	end := eng.Run()
	ro, err := b.Finalize(end)
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries 0, 1, 2 seal (and a final at 2.5).
	if ro.Boundaries != 3 {
		t.Fatalf("boundaries = %d, want 3", ro.Boundaries)
	}
	bysSeq := map[int]*Snapshot{}
	for _, s := range ro.Snapshots {
		bysSeq[s.Seq] = s
	}
	if s := bysSeq[0]; s == nil || s.Submitted != 0 {
		t.Fatalf("snapshot 0 = %+v, want 0 submitted", bysSeq[0])
	}
	// The push at exactly t=1 belongs to snapshot(1); the 1.5 push does not.
	if s := bysSeq[1]; s == nil || s.Submitted != 1 {
		t.Fatalf("snapshot 1 = %+v, want 1 submitted", bysSeq[1])
	}
	if s := bysSeq[2]; s == nil || s.Submitted != 2 {
		t.Fatalf("snapshot 2 = %+v, want 2 submitted", bysSeq[2])
	}
	if ro.Final.At != end || ro.Final.Submitted != 2 {
		t.Fatalf("final = %+v, want at=%v submitted=2", ro.Final, end)
	}
}

// TestBusRingDecimation drives many boundaries through a small ring and
// checks the stride-doubling keeps the ring bounded and evenly strided.
func TestBusRingDecimation(t *testing.T) {
	eng := sim.NewEngine(1)
	b, err := NewBus(eng, &Config{Cadence: 1 * sim.Second, RingCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		at := sim.Time(i)
		eng.At(at, func() { b.TaskSubmitted() })
	}
	end := eng.Run()
	ro, err := b.Finalize(end)
	if err != nil {
		t.Fatal(err)
	}
	if len(ro.Snapshots) >= 8 {
		t.Fatalf("ring has %d snapshots, cap 8", len(ro.Snapshots))
	}
	if ro.Stride < 16 {
		t.Fatalf("stride = %d, want >= 16 after ~101 boundaries", ro.Stride)
	}
	for i, s := range ro.Snapshots {
		if s.Seq != i*ro.Stride {
			t.Fatalf("snapshot %d has seq %d, want %d (stride %d)", i, s.Seq, i*ro.Stride, ro.Stride)
		}
	}
}

// TestStreamRoundtrip writes a stream and reads it back.
func TestStreamRoundtrip(t *testing.T) {
	eng := sim.NewEngine(1)
	var buf bytes.Buffer
	b, err := NewBus(eng, &Config{
		Cadence: 1 * sim.Second, Stream: &buf,
		Meta: StreamMeta{Workload: "w", Strategy: "s", Workers: 3, Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0.5, func() { b.TaskSubmitted(); b.TaskReady() })
	eng.At(2.5, func() {
		b.TaskPlaced("cat", false, 1, 2.0)
		b.AttemptEnded(false)
		b.TaskFinished("cat", false, 2.5)
	})
	end := eng.Run()
	ro, err := b.Finalize(end)
	if err != nil {
		t.Fatal(err)
	}
	h := Analyze(ro, nil)
	if err := b.WriteHealth(h); err != nil {
		t.Fatal(err)
	}
	st, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Meta != (StreamMeta{Workload: "w", Strategy: "s", Workers: 3, Seed: 42}) {
		t.Fatalf("meta = %+v", st.Meta)
	}
	if st.Cadence != 1*sim.Second || st.RingCap != DefaultRingCap {
		t.Fatalf("cadence/ringcap = %v/%d", st.Cadence, st.RingCap)
	}
	if len(st.Snapshots) != ro.Boundaries {
		t.Fatalf("streamed %d snapshots, sealed %d boundaries", len(st.Snapshots), ro.Boundaries)
	}
	if st.Final == nil || st.Final.Completed != 1 {
		t.Fatalf("final = %+v", st.Final)
	}
	if st.Health == nil || !st.Health.Healthy {
		t.Fatalf("health = %+v", st.Health)
	}
	if got := st.RunObs(); got.Final.Completed != 1 || got.Stride != 1 {
		t.Fatalf("RunObs() = %+v", got)
	}
}

func TestReadStreamErrors(t *testing.T) {
	if _, err := ReadStream(strings.NewReader("")); err == nil {
		t.Error("empty stream should error")
	}
	if _, err := ReadStream(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage should error")
	}
	// Unknown line types are skipped for forward compatibility.
	in := `{"type":"meta","meta":{"cadence":1,"ring_cap":8}}
{"type":"future-thing","payload":1}
{"type":"final","snapshot":{"seq":0,"at":1,"queue_depth":0,"running":0,"submitted":0,"completed":0,"workers_alive":0,"pool_cores":0,"allocated_cores":0,"utilization":0,"sched_latency":{"count":0},"e2e_latency":{"count":0}}}
`
	st, err := ReadStream(strings.NewReader(in))
	if err != nil {
		t.Fatalf("unknown types should be skipped, got %v", err)
	}
	if st.Final == nil {
		t.Fatal("final lost")
	}
}

// mkSnap builds a minimal snapshot timeline point for health-rule tests.
func mkSnap(seq int, at sim.Time, depth int, util float64) *Snapshot {
	return &Snapshot{
		Seq: seq, At: at, QueueDepth: depth,
		PoolCores: 10, AllocatedCores: util * 10, Utilization: util,
	}
}

func timeline(final *Snapshot, snaps ...*Snapshot) *RunObs {
	return &RunObs{Cadence: 1 * sim.Second, Boundaries: len(snaps), Stride: 1,
		Snapshots: snaps, Final: final}
}

func findRule(h *Health, rule string) *Finding {
	for i := range h.Findings {
		if h.Findings[i].Rule == rule {
			return &h.Findings[i]
		}
	}
	return nil
}

func TestHealthQueueGrowth(t *testing.T) {
	fin := mkSnap(4, 4, 40, 0.9)
	fin.Submitted = 50
	ro := timeline(fin,
		mkSnap(0, 0, 0, 0.9), mkSnap(1, 1, 10, 0.9),
		mkSnap(2, 2, 20, 0.9), mkSnap(3, 3, 30, 0.9), mkSnap(4, 4, 40, 0.9))
	h := Analyze(ro, nil)
	f := findRule(h, "queue-growth")
	if f == nil {
		t.Fatalf("no queue-growth finding: %+v", h.Findings)
	}
	if h.Healthy {
		t.Fatal("warning finding should mark the run unhealthy")
	}
	if f.WindowStart != 0 || f.WindowEnd != 4 {
		t.Fatalf("window [%v,%v], want [0,4]", f.WindowStart, f.WindowEnd)
	}
	// A short blip must not fire: growth only over the last quarter snapshot.
	ro2 := timeline(fin,
		mkSnap(0, 0, 5, 0.9), mkSnap(1, 1, 2, 0.9), mkSnap(2, 2, 1, 0.9),
		mkSnap(3, 3, 0, 0.9), mkSnap(4, 4, 3, 0.9))
	if f := findRule(Analyze(ro2, nil), "queue-growth"); f != nil {
		t.Fatalf("blip fired queue-growth: %+v", f)
	}
}

func TestHealthLowUtilization(t *testing.T) {
	fin := mkSnap(4, 4, 0, 0.2)
	ro := timeline(fin,
		mkSnap(0, 0, 0, 0.2), mkSnap(1, 1, 0, 0.3), mkSnap(2, 2, 0, 0.1),
		mkSnap(3, 3, 0, 0.9), mkSnap(4, 4, 0, 0.2))
	h := Analyze(ro, nil)
	f := findRule(h, "low-utilization")
	if f == nil {
		t.Fatalf("no low-utilization finding: %+v", h.Findings)
	}
	if f.Value < 0.79 || f.Value > 0.81 {
		t.Fatalf("fraction %v, want 0.8", f.Value)
	}
	// Busy run: must not fire.
	roBusy := timeline(mkSnap(2, 2, 0, 0.9),
		mkSnap(0, 0, 0, 0.9), mkSnap(1, 1, 0, 0.8), mkSnap(2, 2, 0, 0.9))
	if f := findRule(Analyze(roBusy, nil), "low-utilization"); f != nil {
		t.Fatalf("busy run fired low-utilization: %+v", f)
	}
}

func TestHealthLatencySkewAndSLO(t *testing.T) {
	fin := mkSnap(0, 10, 0, 0.9)
	fin.SchedLatency = LatencyQuantiles{Count: 100, P50: 0.1, P99: 5, P999: 9, Max: 10}
	fin.E2ELatency = LatencyQuantiles{Count: 100, P50: 1, P99: 8, P999: 9, Max: 10}
	ro := timeline(fin)
	h := Analyze(ro, nil)
	f := findRule(h, "sched-latency-skew")
	if f == nil {
		t.Fatalf("no skew finding at 50x: %+v", h.Findings)
	}
	if f.Value < 49 || f.Value > 51 {
		t.Fatalf("skew ratio %v, want 50", f.Value)
	}
	// SLO gates fire critical findings when configured.
	h2 := Analyze(ro, &HealthConfig{SchedP99SLO: 1, E2EP99SLO: 2})
	for _, rule := range []string{"sched-p99-slo", "e2e-p99-slo"} {
		f := findRule(h2, rule)
		if f == nil || f.Severity != SevCritical {
			t.Fatalf("%s missing or not critical: %+v", rule, h2.Findings)
		}
	}
	if h2.Worst() != SevCritical {
		t.Fatalf("worst = %q, want critical", h2.Worst())
	}
	// Under the SLOs and skew factor nothing fires.
	fin2 := mkSnap(0, 10, 0, 0.9)
	fin2.SchedLatency = LatencyQuantiles{Count: 100, P50: 0.1, P99: 0.2, P999: 0.3, Max: 1}
	h3 := Analyze(timeline(fin2), &HealthConfig{SchedP99SLO: 1})
	if len(h3.Findings) != 0 || !h3.Healthy {
		t.Fatalf("quiet run has findings: %+v", h3.Findings)
	}
}

func TestHealthTerminalRules(t *testing.T) {
	fin := mkSnap(0, 10, 0, 0.9)
	fin.Submitted, fin.Completed, fin.Failed = 100, 90, 10
	fin.Retries = 60
	fin.WorkersQuarantined, fin.QuarantineTrips = 1, 3
	fin.Anomalies, fin.ChaosInjected = 2, 7
	h := Analyze(timeline(fin), nil)
	for _, rule := range []string{"task-failures", "retry-storm", "quarantine-open", "anomalies", "chaos"} {
		if findRule(h, rule) == nil {
			t.Errorf("missing %s: %+v", rule, h.Findings)
		}
	}
	if h.Healthy {
		t.Fatal("unhealthy run reported healthy")
	}
	// All quarantines lifted → info-only trips finding.
	fin.WorkersQuarantined = 0
	h2 := Analyze(timeline(fin), nil)
	if f := findRule(h2, "quarantine-trips"); f == nil || f.Severity != SevInfo {
		t.Fatalf("quarantine-trips missing or not info: %+v", h2.Findings)
	}
}

func TestSparklineAndBar(t *testing.T) {
	if got := Sparkline([]float64{0, 1, 2, 4}, 4); got != "▁▂▄█" {
		t.Fatalf("Sparkline = %q", got)
	}
	if got := Sparkline([]float64{0, 0}, 4); got != "▁▁" {
		t.Fatalf("all-zero Sparkline = %q", got)
	}
	// Longer history than width keeps the tail.
	if got := Sparkline([]float64{9, 9, 9, 0, 4}, 2); got != "▁█" {
		t.Fatalf("tail Sparkline = %q", got)
	}
	if got := Bar(0.5, 4); got != "██░░" {
		t.Fatalf("Bar(0.5) = %q", got)
	}
	if got := Bar(2, 3); got != "███" {
		t.Fatalf("clamped Bar = %q", got)
	}
	if got := Bar(-1, 3); got != "░░░" {
		t.Fatalf("negative Bar = %q", got)
	}
}

func TestTopThrottleAndRender(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(0, 0)
	top := &Top{W: &buf, MinInterval: time.Second, Clock: func() time.Time { return clock }}
	s := &Snapshot{At: 5, QueueDepth: 3, Running: 2, Submitted: 10, Completed: 4,
		WorkersAlive: 2, PoolCores: 16, AllocatedCores: 8, Utilization: 0.5,
		SchedLatency:  LatencyQuantiles{Count: 4, P50: 0.1, P99: 0.4, P999: 0.5, Max: 1},
		ChaosInjected: 1, Events: []ChaosEvent{{At: 2, Kind: "worker-crash"}},
	}
	top.OnSnapshot(s) // first frame renders
	top.OnSnapshot(s) // throttled: same instant
	clock = clock.Add(2 * time.Second)
	top.OnSnapshot(s) // renders again
	top.Final(s)      // final always renders
	if top.Frames() != 3 {
		t.Fatalf("frames = %d, want 3", top.Frames())
	}
	out := buf.String()
	for _, want := range []string{"lfmtop", "queue", "worker-crash", "p99", "done 4/10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("frame missing %q:\n%s", want, out)
		}
	}
}

// TestBusRingCapHitAtBoundary pins the decimation trigger point the diff
// engine's resampling leans on: the ring halves (and the stride doubles)
// on the append that reaches the cap exactly, never before, and seq 0 —
// the run's first boundary — survives every halving because 0 is a
// multiple of every stride.
func TestBusRingCapHitAtBoundary(t *testing.T) {
	run := func(boundaries int) *RunObs {
		eng := sim.NewEngine(1)
		b, err := NewBus(eng, &Config{Cadence: 1 * sim.Second, RingCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Schedule past the last boundary so `boundaries` seals happen:
		// boundary k seals on the first push strictly after k.
		eng.At(sim.Time(boundaries)-0.5, func() { b.TaskSubmitted() })
		end := eng.Run()
		ro, err := b.Finalize(end)
		if err != nil {
			t.Fatal(err)
		}
		return ro
	}

	// Seven sealed boundaries (seq 0..6): one short of the cap, no halving.
	if ro := run(7); ro.Stride != 1 || len(ro.Snapshots) != 7 {
		t.Fatalf("7 boundaries: stride=%d retained=%d, want 1/7", ro.Stride, len(ro.Snapshots))
	}
	// The eighth retained snapshot hits the cap exactly: the ring halves to
	// the even seqs and the stride doubles, on that append and not before.
	if ro := run(8); ro.Stride != 2 || len(ro.Snapshots) != 4 {
		t.Fatalf("8 boundaries: stride=%d retained=%d, want 2/4", ro.Stride, len(ro.Snapshots))
	} else {
		for i, s := range ro.Snapshots {
			if s.Seq != 2*i {
				t.Fatalf("after first halving snapshot %d has seq %d, want %d", i, s.Seq, 2*i)
			}
		}
	}
	// Seq 0 survives arbitrarily many halvings.
	ro := run(200)
	if len(ro.Snapshots) == 0 || ro.Snapshots[0].Seq != 0 {
		t.Fatalf("seq 0 lost after repeated halving: %+v", ro.Snapshots)
	}
}

// TestBusRingEffectiveCadence checks the property Align() resamples by:
// after stride-doubling, retained snapshots sit on a uniform grid of
// Cadence × Stride sim-seconds — the ring is a coarser capture of the same
// run, not an arbitrary subset. Uses a non-integer cadence to catch any
// float accumulation in the boundary walk.
func TestBusRingEffectiveCadence(t *testing.T) {
	const cadence = 2.5 * sim.Second
	eng := sim.NewEngine(1)
	b, err := NewBus(eng, &Config{Cadence: cadence, RingCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(150*sim.Second, func() { b.TaskSubmitted() })
	end := eng.Run()
	ro, err := b.Finalize(end)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Stride < 2 {
		t.Fatalf("stride = %d, want doubling to have happened", ro.Stride)
	}
	period := cadence * sim.Time(ro.Stride)
	for i, s := range ro.Snapshots {
		if want := sim.Time(i) * period; math.Abs(float64(s.At-want)) > 1e-9 {
			t.Fatalf("snapshot %d at %v, want %v (effective cadence %v)", i, s.At, want, period)
		}
		if s.Seq != i*ro.Stride {
			t.Fatalf("snapshot %d has seq %d, want %d", i, s.Seq, i*ro.Stride)
		}
	}
}

// TestBusConsistencyAfterDoubling drives enough boundaries through a small
// ring for several halvings and checks decimation only discards retained
// snapshots: the live counters still reconcile exactly against ground
// truth, and a skewed truth is still caught.
func TestBusConsistencyAfterDoubling(t *testing.T) {
	eng := sim.NewEngine(1)
	b, err := NewBus(eng, &Config{Cadence: 1 * sim.Second, RingCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 100
	truth := Truth{}
	b.SetTruth(func() Truth { return truth })
	for i := 0; i < tasks; i++ {
		at := sim.Time(i) + 0.25
		eng.At(at, func() {
			b.TaskSubmitted()
			b.TaskReady()
			b.TaskPlaced("cat", false, 1, 0)
			b.AttemptEnded(false)
			b.TaskFinished("cat", false, 0.1)
			truth.Submitted++
			truth.Completed++
		})
	}
	end := eng.Run()
	if err := b.CheckConsistency(); err != nil {
		t.Fatalf("consistency after doublings: %v", err)
	}
	ro, err := b.Finalize(end)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Stride < 16 {
		t.Fatalf("stride = %d, want >= 16 after %d boundaries", ro.Stride, tasks)
	}
	if ro.Final.Submitted != tasks || ro.Final.Completed != tasks {
		t.Fatalf("final counters %d/%d, want %d/%d", ro.Final.Submitted, ro.Final.Completed, tasks, tasks)
	}
	truth.Completed--
	if err := b.CheckConsistency(); err == nil {
		t.Fatal("skewed truth not caught after doubling")
	}
}

// TestReadStreamVersion checks the schema_version contract: current
// streams carry StreamVersion and round-trip, version-0 (pre-versioning)
// streams still parse, and a stream from a newer writer is refused with a
// typed *StreamVersionError instead of being misparsed.
func TestReadStreamVersion(t *testing.T) {
	eng := sim.NewEngine(1)
	var buf bytes.Buffer
	b, err := NewBus(eng, &Config{Cadence: 1 * sim.Second, Stream: &buf})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0.5, func() { b.TaskSubmitted() })
	end := eng.Run()
	if _, err := b.Finalize(end); err != nil {
		t.Fatal(err)
	}
	st, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.SchemaVersion != StreamVersion {
		t.Fatalf("stream carries schema version %d, want %d", st.SchemaVersion, StreamVersion)
	}

	legacy := `{"type":"meta","meta":{"cadence":1,"ring_cap":8}}` + "\n"
	if st, err := ReadStream(strings.NewReader(legacy)); err != nil || st.SchemaVersion != 0 {
		t.Fatalf("version-0 stream: %+v, %v", st, err)
	}

	future := `{"type":"meta","meta":{"schema_version":99,"cadence":1,"ring_cap":8}}` + "\n"
	_, err = ReadStream(strings.NewReader(future))
	var ve *StreamVersionError
	if !errors.As(err, &ve) || ve.Version != 99 {
		t.Fatalf("future stream error = %v, want *StreamVersionError{99}", err)
	}
}
