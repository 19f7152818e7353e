package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"lfm"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// TestRenderGolden locks lfmtrace's report against a canned span trace:
// testdata/run.trace.json was written by TraceStore.WriteJSON from a
// seeded 12-task Scale run (ScaleWorkload(7, 12, 3), Auto, 4 ndcrc
// workers) under the storm chaos profile with heartbeats, so the report
// has a critical path, both bottleneck tables, failure events and lost
// attempts. Regenerate the golden with `go test ./cmd/lfmtrace -update`
// after an intentional format change.
func TestRenderGolden(t *testing.T) {
	f, err := os.Open("testdata/run.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := lfm.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report(&buf, st, 5)

	const golden = "testdata/report.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from %s (run with -update after intentional changes)\ngot:\n%s", golden, buf.String())
	}
}
