package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lfm"
	"lfm/internal/artifact"
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

// writeArchive archives one run of the named scenario, as `lfmscenario run
// NAME -archive FILE` does, and returns the file's path and the archive.
func writeArchive(t *testing.T, name string) (string, *lfm.RunArchive) {
	t.Helper()
	s, err := lfm.ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	_, arch, err := lfm.RunScenarioArchived(s, lfm.ScenarioArchiveOptions{Events: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := lfm.WriteRunArchive(arch)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".lfma")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, arch
}

// TestArchiveReport renders an overload-storm run archive: the verdict and
// every finding come from the archive's summary health, the -json export
// is that health report, and the run, which sheds load by design, exits 3
// unless -allow-unhealthy is given.
func TestArchiveReport(t *testing.T) {
	path, arch := writeArchive(t, "overload-storm")
	want := arch.Summary.Health
	if want == nil || want.Healthy {
		t.Fatalf("overload-storm archive health = %+v, want an unhealthy verdict", want)
	}
	jsonPath := filepath.Join(t.TempDir(), "health.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", jsonPath, path}, nil, &stdout, &stderr); code != 3 {
		t.Fatalf("exit %d, want 3; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	verdict := fmt.Sprintf("verdict: UNHEALTHY (worst: %s) — %d findings over %d snapshots",
		want.Worst(), len(want.Findings), want.Snapshots)
	if !strings.Contains(out, verdict) {
		t.Fatalf("report lacks %q:\n%s", verdict, out)
	}
	for _, f := range want.Findings {
		if !strings.Contains(out, f.Rule) || !strings.Contains(out, f.Detail) {
			t.Fatalf("report lacks finding %s: %s\n%s", f.Rule, f.Detail, out)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var got lfm.RunHealth
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("-json health = %+v, want the archive's %+v", got, *want)
	}

	stdout.Reset()
	if code := run([]string{"-allow-unhealthy", path}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("-allow-unhealthy: exit %d, want 0", code)
	}
	if stdout.String() != out {
		t.Fatal("-allow-unhealthy changed the report")
	}
}

// TestTruncatedArchiveRefused cuts an archive short: the report must
// refuse it with the typed artifact error and exit 1.
func TestTruncatedArchiveRefused(t *testing.T) {
	path, _ := writeArchive(t, "heavy-tail")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := data[:len(data)/2]
	var aerr *artifact.Error
	if _, err := load(cut); !errors.As(err, &aerr) || aerr.Format != lfm.RunArchiveFormat || aerr.Reason != artifact.Corrupt {
		t.Fatalf("load(truncated archive) = %v, want a corrupt %s error", err, lfm.RunArchiveFormat)
	}
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, nil, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), artifact.Corrupt) {
		t.Fatalf("stdout %q, stderr %q: want no report and the corrupt error", stdout.String(), stderr.String())
	}
}
