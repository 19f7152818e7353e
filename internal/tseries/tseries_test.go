package tseries

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"lfm/internal/artifact"
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

func res(c, m, d float64) monitor.Resources {
	return monitor.Resources{Cores: c, MemoryMB: m, DiskMB: d}
}

// The tentpole memory bound: ≥10x the cap worth of measurements through one
// series must stay within the cap while preserving the exact peak.
func TestSeriesBoundedPeakExact(t *testing.T) {
	const cap = 16
	s := NewSeries(cap)
	n := cap * 10
	peak := res(0, 0, 0)
	for i := 0; i < n; i++ {
		u := res(1, float64(100+i%37), 10)
		if i == n/2 {
			u.MemoryMB = 5000 // single-sample spike the decimation must keep
		}
		peak = peak.Max(u)
		s.Add(sim.Time(i), u, SrcPoll)
	}
	if s.Raw() != n {
		t.Fatalf("raw = %d, want %d", s.Raw(), n)
	}
	if s.Len() > cap {
		t.Fatalf("series length %d exceeds cap %d", s.Len(), cap)
	}
	if s.Stride() <= 1 {
		t.Fatalf("stride = %d, expected decimation to have kicked in", s.Stride())
	}
	if s.Peak() != peak {
		t.Fatalf("peak = %v, want %v", s.Peak(), peak)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The spike must survive in the retained points, not just the scalar.
	var max monitor.Resources
	for _, p := range s.Points() {
		max = max.Max(p.U)
	}
	if max.MemoryMB != 5000 {
		t.Fatalf("downsampled series lost the spike: max %v", max)
	}
}

func TestSeriesDeterministic(t *testing.T) {
	build := func() []Point {
		s := NewSeries(32)
		for i := 0; i < 500; i++ {
			s.Add(sim.Time(i)*sim.Second/4, res(1, float64(i%91), float64(i%13)), SrcPoll)
		}
		return s.Points()
	}
	if !reflect.DeepEqual(build(), build()) {
		t.Fatal("identical Add sequences produced different series")
	}
}

func TestSeriesDeltasSpanDuration(t *testing.T) {
	s := NewSeries(8)
	times := []sim.Time{0, 1, 2.5, 7, 11, 30, 31, 31, 40, 100}
	for _, at := range times {
		s.Add(at, res(1, 10, 1), SrcPoll)
	}
	var span sim.Time
	for _, p := range s.Points() {
		if p.DT < 0 {
			t.Fatalf("negative delta %v", p.DT)
		}
		span += p.DT
	}
	want := times[len(times)-1] - times[0]
	if span != want {
		t.Fatalf("deltas span %v, want %v", span, want)
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(99 - i) // reversed, summarize must sort
	}
	d := summarize(vals)
	if d.N != 100 || d.Max != 99 {
		t.Fatalf("n=%d max=%g", d.N, d.Max)
	}
	if d.P50 != 49 || d.P90 != 89 || d.P99 != 98 {
		t.Fatalf("p50=%g p90=%g p99=%g", d.P50, d.P90, d.P99)
	}
	if z := summarize(nil); z.N != 0 || z.Max != 0 {
		t.Fatalf("empty summary %+v", z)
	}
}

func TestLeakDetector(t *testing.T) {
	cfg := AnomalyConfig{}
	cfg.fillDefaults()
	var l leakState
	// Monotone growth: 16 MB/sample at 1 sample/s, 8 samples = +112MB over
	// 7s after the base — above both the slope and growth floors.
	fired := 0
	for i := 0; i < 20; i++ {
		fire, detail := l.observe(&cfg, sim.Time(i), res(1, float64(100+16*i), 0))
		if fire {
			fired++
			if detail == "" {
				t.Fatal("fired with empty detail")
			}
		}
	}
	if fired != 1 {
		t.Fatalf("leak fired %d times, want exactly once", fired)
	}

	// A decrease resets the monotone run: sawtooth usage never fires.
	var saw leakState
	for i := 0; i < 100; i++ {
		u := res(1, float64(100+50*(i%4)), 0)
		if fire, _ := saw.observe(&cfg, sim.Time(i), u); fire {
			t.Fatal("sawtooth usage flagged as leak")
		}
	}

	// Slow creep below the slope floor never fires either.
	var creep leakState
	for i := 0; i < 1000; i++ {
		u := res(1, 100+0.1*float64(i), 0)
		if fire, _ := creep.observe(&cfg, sim.Time(i), u); fire {
			t.Fatal("0.1 MB/s creep flagged as leak")
		}
	}
}

func TestFlatState(t *testing.T) {
	var f flatState
	f.observe(0, res(1, 100, 0))
	f.observe(10, res(1, 100, 0))
	if got := f.flatFor(30); got != 30 {
		t.Fatalf("flatFor = %v, want 30", got)
	}
	f.observe(40, res(1, 200, 0)) // usage changed: stretch restarts
	if got := f.flatFor(45); got != 5 {
		t.Fatalf("flatFor after change = %v, want 5", got)
	}
}

// buildRun drives a small synthetic run through a collector on a sim engine
// and returns the finalized telemetry.
func buildRun(t *testing.T, seed int64) *RunTelemetry {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := DefaultConfig()
	cfg.SeriesCap = 16
	c := NewCollector(eng, cfg)
	c.SetLabelAudit(func(cat string) (monitor.Resources, bool) {
		if cat == "sim" {
			return res(1, 128, 50), true
		}
		return monitor.Resources{}, false
	})

	eng.At(0, func() {
		c.NodeJoin(1, res(8, 8000, 100000))
		c.NodeJoin(2, res(8, 8000, 100000))
	})
	for task := 0; task < 4; task++ {
		task := task
		start := sim.Time(task) * 5
		eng.At(start, func() {
			node := 1 + task%2
			c.NodeAlloc(node, res(2, 500, 100))
			rec := c.StartAttempt(task, 1, false, "sim", node, res(2, 500, 100))
			for i := 0; i < 200; i++ {
				at := start + sim.Time(i)*sim.Second/4
				u := res(1, float64(60+(task*31+i)%80), 20)
				eng.At(at, func() { rec.Observe(at, u, monitor.SourcePoll) })
			}
			end := start + 50*sim.Second
			eng.At(end, func() {
				c.FinishAttempt(rec, monitor.Report{
					Start: start, End: end, WallTime: end - start,
					Peak: res(1, 139, 20), MeanUsage: res(1, 100, 20),
					TimeToPeak: 10, Completed: true,
				})
				c.NodeAlloc(1+task%2, res(-2, -500, -100))
			})
		})
	}
	eng.Run()
	return c.Finalize(RunMeta{Workload: "synthetic", Strategy: "Auto", Workers: 2, Seed: seed, Makespan: eng.Now()})
}

func TestCollectorLifecycle(t *testing.T) {
	rt := buildRun(t, 7)
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(rt.Attempts) != 4 {
		t.Fatalf("attempts = %d, want 4", len(rt.Attempts))
	}
	for _, a := range rt.Attempts {
		if a.Outcome != "completed" {
			t.Fatalf("attempt %d outcome %q", a.Task, a.Outcome)
		}
		if len(a.Series) > rt.SeriesCap {
			t.Fatalf("attempt %d series %d > cap %d", a.Task, len(a.Series), rt.SeriesCap)
		}
		if a.RawMeasurements != 200 {
			t.Fatalf("attempt %d raw = %d", a.Task, a.RawMeasurements)
		}
	}
	if len(rt.Profiles) != 1 || rt.Profiles[0].Category != "sim" {
		t.Fatalf("profiles = %+v", rt.Profiles)
	}
	p := rt.Profiles[0]
	if p.Completed != 4 || p.PeakMemMB.N != 4 {
		t.Fatalf("profile completed=%d n=%d", p.Completed, p.PeakMemMB.N)
	}
	if p.Label == nil || p.Label.MemoryMB != 128 {
		t.Fatalf("label audit missing: %+v", p.Label)
	}
	// All peaks were 139MB > 128MB label: coverage 0.
	if p.LabelCoverage != 0 {
		t.Fatalf("coverage = %g, want 0", p.LabelCoverage)
	}
	if len(rt.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(rt.Nodes))
	}
	// Each attempt allocated 2 cores for 50s: 4 attempts = 400 core-seconds.
	if got := rt.Util.AllocatedCoreSeconds; got != 400 {
		t.Fatalf("allocated core-seconds = %g, want 400", got)
	}
	if rt.Util.UsedCoreSeconds <= 0 || rt.Util.UsedCoreSeconds >= rt.Util.AllocatedCoreSeconds {
		t.Fatalf("used core-seconds = %g out of range", rt.Util.UsedCoreSeconds)
	}
	if rt.Util.WasteFraction <= 0 {
		t.Fatalf("waste fraction = %g, want positive", rt.Util.WasteFraction)
	}
}

func TestExportRoundTripAndDeterminism(t *testing.T) {
	rt := buildRun(t, 7)
	var b1, b2 bytes.Buffer
	if err := WriteJSONL(&b1, []*RunTelemetry{rt}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b2, []*RunTelemetry{rt}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two exports of the same telemetry differ")
	}
	// A fresh identical run must export byte-identically too.
	var b3 bytes.Buffer
	if err := WriteJSONL(&b3, []*RunTelemetry{buildRun(t, 7)}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("same-seed rebuild exported different bytes")
	}

	runs, err := ReadJSONL(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("parsed %d runs", len(runs))
	}
	got := runs[0]
	if !reflect.DeepEqual(got.Meta, rt.Meta) || got.SeriesCap != rt.SeriesCap {
		t.Fatalf("meta mismatch: %+v vs %+v", got.Meta, rt.Meta)
	}
	if !reflect.DeepEqual(got.Attempts, rt.Attempts) {
		t.Fatal("attempts did not round-trip")
	}
	if !reflect.DeepEqual(got.Profiles, rt.Profiles) {
		t.Fatal("profiles did not round-trip")
	}
	if !reflect.DeepEqual(got.Util, rt.Util) {
		t.Fatal("util did not round-trip")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Several runs share one frame and come back in order.
	var multi bytes.Buffer
	if err := WriteJSONL(&multi, []*RunTelemetry{rt, buildRun(t, 8)}); err != nil {
		t.Fatal(err)
	}
	if runs, err := ReadJSONL(&multi); err != nil || len(runs) != 2 || runs[1].Meta.Seed != 8 {
		t.Fatalf("two-run export: %d runs, %v", len(runs), err)
	}

	var csv bytes.Buffer
	if err := rt.WriteSeriesCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.Len() == 0 || !bytes.HasPrefix(csv.Bytes(), []byte("task,attempt,")) {
		t.Fatalf("csv export malformed: %q", csv.String()[:40])
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	c.NodeJoin(1, res(1, 1, 1))
	c.NodeLeave(1)
	c.NodeAlloc(1, res(1, 1, 1))
	rec := c.StartAttempt(0, 1, false, "x", 1, res(1, 1, 1))
	if rec != nil {
		t.Fatal("nil collector returned a recorder")
	}
	rec.Observe(0, res(1, 1, 1), monitor.SourcePoll)
	c.FinishAttempt(rec, monitor.Report{})
	c.AbortAttempt(rec, "lost")
	if c.Flatlined(rec, 100) {
		t.Fatal("nil collector flagged a flatline")
	}
	if rt := c.Finalize(RunMeta{}); rt != nil {
		t.Fatal("nil collector finalized non-nil telemetry")
	}
}

func TestCollectorAnomalies(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	c := NewCollector(eng, cfg)
	c.SetCategoryMeans(func(string) (float64, int) { return 10, 5 })
	eng.At(0, func() {
		c.NodeJoin(1, res(8, 8000, 1000))
		leaky := c.StartAttempt(1, 1, false, "leak", 1, res(2, 1000, 10))
		flat := c.StartAttempt(2, 1, false, "flat", 1, res(2, 1000, 10))
		for i := 0; i < 60; i++ {
			at := sim.Time(i) * sim.Second
			mem := float64(100 + 20*i) // 20 MB/s monotone growth
			eng.At(at, func() {
				leaky.Observe(at, res(1, mem, 10), monitor.SourcePoll)
				flat.Observe(at, res(1, 50, 10), monitor.SourcePoll)
			})
		}
		eng.At(100, func() {
			// Category mean 10s, age 100s >> 2x mean, flat > 30s: flags once.
			if !c.Flatlined(flat, 100) {
				t.Error("expected flatline")
			}
			if !c.Flatlined(flat, 100) {
				t.Error("flatline should remain true on re-query")
			}
			c.AbortAttempt(leaky, "lost")
			c.AbortAttempt(flat, "lost")
		})
	})
	eng.Run()
	rt := c.Finalize(RunMeta{})
	var kinds []string
	for _, a := range rt.Anomalies {
		kinds = append(kinds, fmt.Sprintf("%s/%d", a.Kind, a.Task))
	}
	if len(rt.Anomalies) != 2 {
		t.Fatalf("anomalies = %v, want one leak and one flatline", kinds)
	}
	if rt.Anomalies[0].Kind != AnomalyMemLeak || rt.Anomalies[0].Task != 1 {
		t.Fatalf("first anomaly %+v", rt.Anomalies[0])
	}
	if rt.Anomalies[1].Kind != AnomalyFlatline || rt.Anomalies[1].Task != 2 {
		t.Fatalf("second anomaly %+v", rt.Anomalies[1])
	}
}

// fill reads an endless run of one byte.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestReadJSONLErrors checks that every damaged or foreign export fails
// with the typed error, naming the offending line where there is one.
func TestReadJSONLErrors(t *testing.T) {
	const (
		hdr    = `{"kind":"header","header":{"format":"lfm-telemetry-export","version":2}}` + "\n"
		run    = `{"kind":"run","run":{"makespan":1,"series_cap":64}}` + "\n"
		node   = `{"kind":"node","node":{"node":1}}` + "\n"
		util   = `{"kind":"util","util":{}}` + "\n"
		footer = `{"kind":"footer","footer":{"runs":1}}` + "\n"
	)
	if runs, err := ReadJSONL(strings.NewReader(hdr + run + node + util + footer)); err != nil || len(runs) != 1 || len(runs[0].Nodes) != 1 {
		t.Fatalf("well-formed export: %v", err)
	}
	cases := []struct {
		name   string
		in     io.Reader
		reason string
		line   int
	}{
		{"empty", strings.NewReader(""), artifact.BadFormat, 0},
		{"garbage", strings.NewReader("not json\n"), artifact.BadFormat, 1},
		{"version-1-meta-line", strings.NewReader(`{"type":"meta","meta":{"schema_version":1,"makespan":1,"series_cap":64}}` + "\n"), artifact.BadFormat, 1},
		{"newer-version", strings.NewReader(strings.Replace(hdr, `"version":2`, `"version":3`, 1)), artifact.BadVersion, 1},
		{"record-before-run", strings.NewReader(hdr + node + run + footer), artifact.Corrupt, 2},
		{"node-without-payload", strings.NewReader(hdr + run + `{"kind":"node"}` + "\n" + util + footer), artifact.Corrupt, 3},
		{"unknown-kind", strings.NewReader(hdr + run + `{"kind":"future-thing","future-thing":1}` + "\n" + footer), artifact.Corrupt, 3},
		{"truncated-mid-run", strings.NewReader(hdr + run + node), artifact.Corrupt, 0},
		{"run-count-mismatch", strings.NewReader(hdr + run + util + run + util + footer), artifact.Corrupt, 0},
		{"line-over-cap", io.MultiReader(strings.NewReader(hdr+run+`{"kind":"node","node":"`), io.LimitReader(fill('x'), artifact.MaxLine)), artifact.Corrupt, 3},
	}
	for _, c := range cases {
		_, err := ReadJSONL(c.in)
		var ae *artifact.Error
		if !errors.As(err, &ae) || ae.Format != ExportFormat || ae.Reason != c.reason || ae.Line != c.line {
			t.Errorf("%s: got %v, want %s at line %d", c.name, err, c.reason, c.line)
		}
	}
}

// TestExportSchemaVersion checks the version contract: an export carries
// ExportFormat and ExportVersion in its header and reads back, an export
// from a newer writer is refused as bad-version instead of being
// misparsed, and a pre-framing version-1 export is refused as bad-format.
func TestExportSchemaVersion(t *testing.T) {
	rt := buildRun(t, 7)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []*RunTelemetry{rt}); err != nil {
		t.Fatal(err)
	}
	cur := fmt.Sprintf(`"format":%q,"version":%d`, ExportFormat, ExportVersion)
	if !strings.Contains(buf.String(), cur) {
		t.Fatalf("export header lacks %s", cur)
	}
	if runs, err := ReadJSONL(bytes.NewReader(buf.Bytes())); err != nil || len(runs) != 1 {
		t.Fatalf("current export: %v, %d runs", err, len(runs))
	}

	future := strings.Replace(buf.String(), cur, fmt.Sprintf(`"format":%q,"version":99`, ExportFormat), 1)
	_, err := ReadJSONL(strings.NewReader(future))
	var ae *artifact.Error
	if !errors.As(err, &ae) || ae.Reason != artifact.BadVersion || ae.Line != 1 {
		t.Fatalf("future export error = %v, want %s at line 1", err, artifact.BadVersion)
	}

	legacy := `{"type":"meta","meta":{"schema_version":1,"makespan":1,"series_cap":64}}` + "\n"
	_, err = ReadJSONL(strings.NewReader(legacy))
	if !errors.As(err, &ae) || ae.Reason != artifact.BadFormat || ae.Line != 1 {
		t.Fatalf("version-1 export error = %v, want %s at line 1", err, artifact.BadFormat)
	}
}

// TestClosedRecordersReleased checks the recorder lifetime: the collector
// keeps only the recorders still open, a closed one is collectable once
// its caller drops it, its series buffer serves the next attempt, and
// Finalize closes the rest in start order. Every summary must equal what
// a fresh series per attempt gives.
func TestClosedRecordersReleased(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCollector(eng, &Config{SeriesCap: 8})
	c.NodeJoin(1, res(8, 8000, 1000))
	// Attempt i takes lens[i] measurements: 40 decimates past the cap, so
	// the buffer it leaves behind has a doubled stride to reset.
	lens := []int{5, 40, 3, 9}
	usage := func(i, k int) monitor.Resources { return res(1, float64(100+(i*37+k*11)%90), 10) }
	recs := make([]*AttemptRecorder, len(lens))
	start := func(i int) {
		recs[i] = c.StartAttempt(i, 1, false, "x", 1, res(1, 256, 10))
		for k := 0; k < lens[i]; k++ {
			recs[i].Observe(sim.Time(k+1), usage(i, k), monitor.SourcePoll)
		}
	}
	finish := func(i int) {
		c.FinishAttempt(recs[i], monitor.Report{End: sim.Time(lens[i] + 1), Completed: true})
	}
	start(0)
	start(1)
	start(2)
	finish(1)
	start(3) // reuses attempt 1's series
	finish(0)
	if len(c.open) != 2 {
		t.Fatalf("collector holds %d recorders, want the 2 still open", len(c.open))
	}
	gone := []weak.Pointer[AttemptRecorder]{weak.Make(recs[0]), weak.Make(recs[1])}
	recs[0], recs[1] = nil, nil
	runtime.GC()
	for i, w := range gone {
		if w.Value() != nil {
			t.Fatalf("closed recorder %d still reachable", i)
		}
	}

	rt := c.Finalize(RunMeta{})
	if c.spare != nil || len(c.open) != 0 {
		t.Fatalf("after Finalize: %d spare series, %d open recorders", len(c.spare), len(c.open))
	}
	wantOrder := []int{1, 0, 2, 3}
	if len(rt.Attempts) != len(wantOrder) {
		t.Fatalf("attempts = %d, want %d", len(rt.Attempts), len(wantOrder))
	}
	for j, a := range rt.Attempts {
		i := wantOrder[j]
		fresh := NewSeries(8)
		for k := 0; k < lens[i]; k++ {
			fresh.Add(sim.Time(k+1), usage(i, k), SrcPoll)
		}
		pts := fresh.Points()
		pts[0].DT += fresh.Start()
		if a.Task != i || a.RawMeasurements != lens[i] || a.Stride != fresh.Stride() ||
			a.Peak != fresh.Peak() || !reflect.DeepEqual(a.Series, pts) {
			t.Fatalf("attempt %d summary %+v, want stride %d peak %v series %v",
				i, a, fresh.Stride(), fresh.Peak(), pts)
		}
	}
	if rt.Attempts[2].Outcome != "open" || rt.Attempts[0].Outcome != "completed" {
		t.Fatalf("outcomes %q, %q", rt.Attempts[0].Outcome, rt.Attempts[2].Outcome)
	}
}
