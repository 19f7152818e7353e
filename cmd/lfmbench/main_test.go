package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lfm"
)

// readTwice runs write into two fresh files and returns both contents.
func readTwice(t *testing.T, name string, write func(path string) error) (first, second []byte) {
	t.Helper()
	dir := t.TempDir()
	var out [2][]byte
	for i := range out {
		path := filepath.Join(dir, name+[]string{".a", ".b"}[i])
		if err := write(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s: empty export", name)
		}
		out[i] = data
	}
	return out[0], out[1]
}

// TestTraceExportsDeterministic runs the traced HEP point twice per format
// at seed 7: each run must write the same bytes, and the json trace must
// read back and re-export byte-identically.
func TestTraceExportsDeterministic(t *testing.T) {
	for _, format := range []string{"json", "perfetto"} {
		a, b := readTwice(t, "trace-"+format, func(path string) error { return runTraced(7, path, format) })
		if !bytes.Equal(a, b) {
			t.Fatalf("-trace-format %s: two seed-7 runs wrote different traces", format)
		}
		if format != "json" {
			continue
		}
		st, err := lfm.ReadTrace(bytes.NewReader(a))
		if err != nil {
			t.Fatalf("json trace does not read back: %v", err)
		}
		var again bytes.Buffer
		if err := st.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), a) {
			t.Fatal("json trace re-exports differently after a read")
		}
	}
}

// TestMetricsExportsDeterministic runs the instrumented HEP point twice at
// seed 7: the Prometheus text and the sampled timelines must not change.
func TestMetricsExportsDeterministic(t *testing.T) {
	dir := t.TempDir()
	timeline := func(i int) string { return filepath.Join(dir, []string{"a", "b"}[i]+".timeline.json") }
	run := 0
	a, b := readTwice(t, "metrics", func(path string) error {
		defer func() { run++ }()
		return runInstrumented(7, 1, path, timeline(run))
	})
	if !bytes.Equal(a, b) {
		t.Fatal("-metrics-out: two seed-7 runs wrote different Prometheus text")
	}
	if !strings.Contains(string(a), "# TYPE") {
		t.Fatalf("-metrics-out is not Prometheus text:\n%.200s", a)
	}
	ta, err := os.ReadFile(timeline(0))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := os.ReadFile(timeline(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ta) == 0 || !bytes.Equal(ta, tb) {
		t.Fatal("-metrics-timeline: two seed-7 runs wrote different timelines")
	}
}

// TestUnknownTraceFormat checks a bad -trace-format fails before any run
// and writes no file.
func TestUnknownTraceFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace")
	err := runTraced(7, path, "chrome")
	if err == nil || !strings.Contains(err.Error(), "chrome") {
		t.Fatalf("runTraced with format chrome: err = %v, want an error naming it", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("a rejected format still wrote %s", path)
	}
}
