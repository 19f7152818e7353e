package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"testing"

	"lfm/internal/cluster"
	"lfm/internal/metrics"
	"lfm/internal/obs"
	"lfm/internal/sim"
	"lfm/internal/tseries"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// sinkExports are the six artifacts a run with every observability sink
// attached can write.
type sinkExports struct {
	traceJSON, perfetto, prometheus, timeline, telemetry, stream []byte
}

// allSinksRun builds a small seeded Scale workload under Auto with the
// trace store, metrics at 1 s, default telemetry and the obs bus (streaming
// into the returned buffer) all attached.
func allSinksRun(t testing.TB) (*workloads.Workload, RunConfig, *bytes.Buffer) {
	t.Helper()
	w := workloads.Scale(sim.NewRNG(7), 600, 8)
	s, err := StrategyFor("auto", w)
	if err != nil {
		t.Fatal(err)
	}
	site := cluster.Sites()["ndcrc"]
	site.Nodes = 40
	var stream bytes.Buffer
	return w, RunConfig{
		Site: &site, Workers: 40, Seed: 7, NoBatchLatency: true,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: s, Trace: &wq.Trace{}, Metrics: metrics.NewRegistry(), MetricsResolution: sim.Second,
		Telemetry: tseries.DefaultConfig(), Obs: &obs.Config{Stream: &stream},
	}, &stream
}

// runAllSinks runs allSinksRun and renders every sink's export.
func runAllSinks(t testing.TB) (*Outcome, sinkExports) {
	t.Helper()
	w, cfg, stream := allSinksRun(t)
	out, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, reg := cfg.Trace, cfg.Metrics
	var ex sinkExports
	write := func(dst *[]byte, fn func(*bytes.Buffer) error) {
		var b bytes.Buffer
		if err := fn(&b); err != nil {
			t.Fatal(err)
		}
		*dst = b.Bytes()
	}
	write(&ex.traceJSON, func(b *bytes.Buffer) error { return tr.Store().WriteJSON(b) })
	write(&ex.perfetto, func(b *bytes.Buffer) error { return tr.Store().WritePerfetto(b) })
	write(&ex.prometheus, func(b *bytes.Buffer) error { return reg.WritePrometheus(b) })
	write(&ex.timeline, func(b *bytes.Buffer) error { return out.Sampler.WriteJSON(b) })
	write(&ex.telemetry, func(b *bytes.Buffer) error {
		return tseries.WriteJSONL(b, []*tseries.RunTelemetry{out.Telemetry})
	})
	ex.stream = stream.Bytes()
	return out, ex
}

// TestSinkExportsGolden pins every sink's export of one seeded run to
// SHA-256 digests, so a change to how the sinks record (handle caching,
// span storage, series buffers) must keep their output byte-identical.
// Every export is deterministic, none is masked. After an intentional
// export change, recompute the digests and say why in the commit.
func TestSinkExportsGolden(t *testing.T) {
	_, ex := runAllSinks(t)
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"trace.json", ex.traceJSON, "6fe2b70f2205db91b1bfe953514fc701ea3e7963cc2cd760dc43011a76cded08"},
		{"perfetto.json", ex.perfetto, "a4cc5689165e206d832fb45139e52f5b2b69beac558bed9e60d61ca547a3cd93"},
		{"metrics.prom", ex.prometheus, "9fda7f7739c88cac6809f0a19f843d8c97593554168675111f960b035bd0736c"},
		{"timeline.json", ex.timeline, "341f59a6603c6a2f237dc9dbe5ece46aa31f4929b7021254a9f6d8c77eb6c1bc"},
		{"telemetry.jsonl", ex.telemetry, "35861231d0570cb90adb9367ce3d0da5418ddc05d5cdfec93068552e3bafcc00"},
		{"obs.jsonl", ex.stream, "00ee9e75d7fa83f7daf90f792115df0f2f787e2bf8104807e764dcefbc1252a3"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s (%d bytes)", c.name, got, c.want, len(c.data))
		}
	}
}

// TestSinkAllocBudget keeps the sinks' per-event cost from creeping back:
// the all-sinks run of TestSinkExportsGolden must allocate at most
// sinkAllocBudget heap objects per task (see objectsPerTask).
func TestSinkAllocBudget(t *testing.T) {
	// Measured at 21.41-21.50 objects per task (go1.24, linux/amd64) and
	// 23.27-23.76 under -race, with collection held off during the run
	// (see objectsPerTask); what spread is left comes from map growth,
	// which depends on the maps' hash seeds. See allocBudget.
	sinkAllocBudget := allocBudget(23.6, 26.1)
	w, cfg, _ := allSinksRun(t)
	if perTask := objectsPerTask(t, w, cfg); perTask > sinkAllocBudget {
		t.Fatalf("all-sinks run allocates %.2f objects per task, budget %.1f", perTask, sinkAllocBudget)
	}
}

// TestSinkRetainedBudget keeps the sinks' retained heap from creeping back
// the way TestSinkAllocBudget keeps their allocations: after the all-sinks
// run of TestSinkExportsGolden, with its outcome and sinks still
// referenced, the live heap the run added (runtime/metrics
// /gc/heap/live:bytes after forced GCs, less the same reading before the
// run) must stay within sinkRetainedBudget bytes per task. It must stay
// there after the trace is exported too, so an exporter may not leave a
// second copy of the spans behind.
func TestSinkRetainedBudget(t *testing.T) {
	// Measured at 6,111-6,112 bytes per task after the run and
	// 6,136-6,147 after the exports (go1.24, linux/amd64; 7,038 and 7,074
	// while polls were stored as spans and the metrics registry kept the
	// master alive), 6,062 and 6,090 under -race; the bound is 10% above
	// the plain count, so make check (which runs the suite only with
	// -race) catches a creep.
	const sinkRetainedBudget = 6760
	w, cfg, _ := allSinksRun(t)
	liveBytes := func() float64 {
		// encoding/json pools its encoder buffer, which can hold a whole
		// export and survives one collection; the second clears it.
		runtime.GC()
		runtime.GC()
		live := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		rtmetrics.Read(live)
		return float64(live[0].Value.Uint64())
	}
	before := liveBytes()
	out, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		perTask := (liveBytes() - before) / float64(out.Stats.Completed+out.Stats.Failed)
		t.Logf("%.0f live bytes per task %s", perTask, when)
		if perTask > sinkRetainedBudget {
			t.Fatalf("all-sinks run retains %.0f bytes per task %s, budget %d", perTask, when, sinkRetainedBudget)
		}
	}
	check("after the run")
	if err := cfg.Trace.Store().WriteJSON(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Store().WritePerfetto(io.Discard); err != nil {
		t.Fatal(err)
	}
	check("after the trace exports")
	runtime.KeepAlive(out)
	runtime.KeepAlive(cfg)
}
