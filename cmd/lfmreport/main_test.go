package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"lfm"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

func readFixture(t *testing.T) *lfm.ObsStream {
	t.Helper()
	f, err := os.Open("testdata/obs.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := lfm.ReadObsStream(f)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRenderGolden locks lfmreport's health report rendering against a
// canned obs stream captured from a deterministic churn-chaos run.
// Regenerate with `go test ./cmd/lfmreport -update` after an intentional
// format change.
func TestRenderGolden(t *testing.T) {
	st := readFixture(t)
	health := st.Health
	if health == nil {
		health = lfm.AnalyzeObs(st.RunObs(), nil)
	}
	var buf bytes.Buffer
	render(&buf, st, health, 60)

	const golden = "testdata/render.golden"
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
		t.Errorf("render output drifted from %s (run with -update after intentional changes)\ngot:\n%s", golden, buf.String())
	}
}

// TestRenderWithoutHealthLine drops the health record from the fixture's
// parsed stream and checks the report re-derives the analysis from the
// snapshots instead of rendering an empty verdict.
func TestRenderWithoutHealthLine(t *testing.T) {
	st := readFixture(t)
	if st.Health == nil {
		t.Fatal("fixture carries no health record to drop")
	}
	st.Health = nil
	health := lfm.AnalyzeObs(st.RunObs(), nil)
	var buf bytes.Buffer
	render(&buf, st, health, 60)
	out := buf.String()
	if !strings.Contains(out, "verdict:") || !strings.Contains(out, "snapshots") {
		t.Fatalf("re-derived report missing verdict:\n%s", out)
	}
}

// TestVerdictExit locks the exit-code contract: unhealthy verdicts exit 3
// so CI catches degraded runs, -allow-unhealthy downgrades that to 0, and
// healthy runs always exit 0.
func TestVerdictExit(t *testing.T) {
	unhealthy := &lfm.RunHealth{Healthy: false}
	healthy := &lfm.RunHealth{Healthy: true}
	cases := []struct {
		name   string
		health *lfm.RunHealth
		allow  bool
		want   int
	}{
		{"unhealthy", unhealthy, false, 3},
		{"unhealthy allowed", unhealthy, true, 0},
		{"healthy", healthy, false, 0},
		{"healthy allowed", healthy, true, 0},
		{"nil health", nil, false, 0},
	}
	for _, c := range cases {
		if got := verdictExit(c.health, c.allow); got != c.want {
			t.Errorf("%s: verdictExit = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestFixtureVerdictExit ties the exit code to the real fixture: the canned
// churn-chaos stream carries its health verdict, and verdictExit must agree
// with it rather than with some stale assumption about the fixture.
func TestFixtureVerdictExit(t *testing.T) {
	st := readFixture(t)
	health := st.Health
	if health == nil {
		health = lfm.AnalyzeObs(st.RunObs(), nil)
	}
	want := 0
	if !health.Healthy {
		want = 3
	}
	if got := verdictExit(health, false); got != want {
		t.Errorf("fixture verdict healthy=%v but verdictExit = %d, want %d", health.Healthy, got, want)
	}
	if got := verdictExit(health, true); got != 0 {
		t.Errorf("-allow-unhealthy must exit 0, got %d", got)
	}
}
