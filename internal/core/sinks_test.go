package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
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

// maskWallClock drops the sample lines of wq_sched_round_seconds, the one
// series that records host wall-clock time (each scheduling round's
// duration) and so differs run to run. Its HELP and TYPE lines stay.
func maskWallClock(prom []byte) []byte {
	var out []string
	for _, line := range strings.SplitAfter(string(prom), "\n") {
		if !strings.HasPrefix(line, "wq_sched_round_seconds") {
			out = append(out, line)
		}
	}
	return []byte(strings.Join(out, ""))
}

// TestSinkExportsGolden pins every sink's export of one seeded run to
// SHA-256 digests, so a change to how the sinks record (handle caching,
// span storage, series buffers) must keep their output byte-identical.
// Only the wall-clock wq_sched_round_seconds samples are masked (see
// maskWallClock). After an intentional export change, recompute the
// digests and say why in the commit.
func TestSinkExportsGolden(t *testing.T) {
	_, ex := runAllSinks(t)
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"trace.json", ex.traceJSON, "52d98ab5c59e3e3a4c314a1c04c45168df0260fb6cf66c5a86e24cf24353008f"},
		{"perfetto.json", ex.perfetto, "72505a2eaa2af21412f5f90e712d68c7bb34a4936f75a78e0cccbe5377014960"},
		{"metrics.prom", maskWallClock(ex.prometheus), "c443ffc53d398d5053d32d9f6ea83bd93ec0cb17a2b84ff9cc3a09b0ebc6f748"},
		{"timeline.json", ex.timeline, "341f59a6603c6a2f237dc9dbe5ece46aa31f4929b7021254a9f6d8c77eb6c1bc"},
		{"telemetry.jsonl", ex.telemetry, "53b82f10c4193c7788563296360ae30860734f3ebc14016e7412e743335b8822"},
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
	// Measured at 40.2 objects per task (go1.24, linux/amd64) and 42.4
	// under -race, whose instrumentation adds a few; the bound is 10%
	// above the plain count, so it holds under -race too and make check
	// (which runs the suite only with -race) catches a creep.
	const sinkAllocBudget = 44.2
	w, cfg, _ := allSinksRun(t)
	if perTask := objectsPerTask(t, w, cfg); perTask > sinkAllocBudget {
		t.Fatalf("all-sinks run allocates %.2f objects per task, budget %.1f", perTask, sinkAllocBudget)
	}
}
