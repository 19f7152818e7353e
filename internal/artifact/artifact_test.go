package artifact_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"lfm/internal/artifact"
	"lfm/internal/core"
	"lfm/internal/obs"
	"lfm/internal/runarchive"
	"lfm/internal/scenario"
	"lfm/internal/sim"
	"lfm/internal/tseries"
	"lfm/internal/workloads"
)

// format is one of the four framed artifacts, seen through its reader and
// writer.
type format struct {
	name    string
	tag     string
	version int
	// recode reads data and writes back what it read.
	recode func(data []byte) ([]byte, error)
	// doc loads a well-formed document of the format.
	doc func(t testing.TB) []byte
}

func readFile(path string) func(testing.TB) []byte {
	return func(t testing.TB) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
}

// tinyTrace records a small open-loop run: a few tasks, one Poisson tenant.
func tinyTrace(t testing.TB) []byte {
	t.Helper()
	s := &scenario.Scenario{
		Name: "tiny",
		Build: func(seed int64) (*scenario.Spec, error) {
			return &scenario.Spec{
				Workload: workloads.Scale(sim.NewRNG(seed), 8, 2),
				Config:   core.ScenarioConfig{Workers: 2, WorkerCores: 4, NoBatchLatency: true},
				Serving: &scenario.ServingShape{
					Window: 20 * sim.Second, MaxInflight: 4,
					Tenants: []scenario.TenantShape{{Name: "api", Weight: 1, Arrival: &workloads.Poisson{Rate: 1}}},
				},
			}, nil
		},
		Metrics: func(*scenario.Result) []scenario.Metric { return nil },
	}
	_, data, err := s.Record(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var formats = []format{
	{
		name: "archive", tag: runarchive.Format, version: runarchive.SchemaVersion,
		recode: func(data []byte) ([]byte, error) {
			a, err := runarchive.Read(data)
			if err != nil {
				return nil, err
			}
			return runarchive.Write(a)
		},
		doc: readFile("../../baselines/heavy-tail.lfma"),
	},
	{
		name: "trace", tag: scenario.TraceFormat, version: scenario.TraceVersion,
		recode: func(data []byte) ([]byte, error) {
			tr, err := scenario.ReadTrace(data)
			if err != nil {
				return nil, err
			}
			return tr.Encode()
		},
		doc: tinyTrace,
	},
	{
		name: "obs", tag: obs.StreamFormat, version: obs.StreamVersion,
		recode: func(data []byte) ([]byte, error) {
			st, err := obs.ReadStream(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = obs.WriteStream(&buf, st)
			return buf.Bytes(), err
		},
		doc: readFile("../../cmd/lfmreport/testdata/obs.jsonl"),
	},
	{
		name: "telemetry", tag: tseries.ExportFormat, version: tseries.ExportVersion,
		recode: func(data []byte) ([]byte, error) {
			runs, err := tseries.ReadJSONL(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = tseries.WriteJSONL(&buf, runs)
			return buf.Bytes(), err
		},
		doc: readFile("../../cmd/lfmprof/testdata/telemetry.jsonl"),
	},
}

// editHeader re-encodes the header line with one header field replaced.
func editHeader(t *testing.T, lines []string, key string, v any) []string {
	t.Helper()
	var env map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &env); err != nil {
		t.Fatal(err)
	}
	env["header"].(map[string]any)[key] = v
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return append([]string{string(b)}, lines[1:]...)
}

// TestFramingErrors runs the shared framing contract over all four
// formats: a well-formed document re-encodes to its own bytes, and every
// way of damaging or mislabelling it fails with the typed error of that
// format, the right reason, and the offending line.
func TestFramingErrors(t *testing.T) {
	for _, f := range formats {
		doc := f.doc(t)
		lines := strings.Split(strings.TrimSuffix(string(doc), "\n"), "\n")
		n := len(lines)
		// The first body line's kind, for the payload-missing case.
		var first struct{ Kind string }
		if err := json.Unmarshal([]byte(lines[1]), &first); err != nil {
			t.Fatal(err)
		}
		join := func(ls []string) []byte { return []byte(strings.Join(ls, "\n") + "\n") }
		with := func(i int, l string) []string {
			out := append([]string(nil), lines...)
			out[i] = l
			return out
		}
		cases := []struct {
			name   string
			in     []byte
			reason string
			line   int
		}{
			{"empty", nil, artifact.BadFormat, 0},
			{"blank-lines-only", []byte("\n \n"), artifact.BadFormat, 0},
			{"not-jsonl", []byte("definitely not json\n"), artifact.BadFormat, 1},
			{"header-not-first", join(lines[1:]), artifact.BadFormat, 1},
			{"wrong-format-tag", join(editHeader(t, lines, "format", "something-else")), artifact.BadFormat, 1},
			{"newer-version", join(editHeader(t, lines, "version", f.version+1)), artifact.BadVersion, 1},
			{"version-zero", join(editHeader(t, lines, "version", 0)), artifact.BadVersion, 1},
			{"garbage-mid-file", join(with(1, "{{{ corrupted")), artifact.Corrupt, 2},
			{"payload-missing", join(with(1, fmt.Sprintf(`{"kind":%q}`, first.Kind))), artifact.Corrupt, 2},
			{"unknown-kind", join(append([]string{lines[0], `{"kind":"mystery","mystery":{}}`}, lines[1:]...)), artifact.Corrupt, 2},
			{"content-after-footer", join(append(append([]string(nil), lines...), lines[1])), artifact.Corrupt, n + 1},
			{"truncated", join(lines[:n-1]), artifact.Corrupt, 0},
		}
		t.Run(f.name, func(t *testing.T) {
			again, err := f.recode(doc)
			if err != nil {
				t.Fatalf("well-formed document: %v", err)
			}
			if !bytes.Equal(doc, again) {
				t.Errorf("well-formed document does not re-encode to its own bytes")
			}
			for _, c := range cases {
				_, err := f.recode(c.in)
				var ae *artifact.Error
				if !errors.As(err, &ae) || ae.Format != f.tag || ae.Reason != c.reason || ae.Line != c.line {
					t.Errorf("%s: got %v, want %s %s at line %d", c.name, err, f.tag, c.reason, c.line)
				}
			}
		})
	}
}

// FuzzReaders feeds every input to all four readers. No reader may panic;
// every failure must be the typed *artifact.Error; and whatever a reader
// accepts must re-encode to bytes that read back and re-encode
// identically, so the re-encoding is a fixed point.
func FuzzReaders(f *testing.F) {
	for _, ft := range formats {
		f.Add(ft.doc(f))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ft := range formats {
			out, err := ft.recode(data)
			if err != nil {
				var ae *artifact.Error
				if !errors.As(err, &ae) {
					t.Fatalf("%s: untyped error %T: %v", ft.name, err, err)
				}
				continue
			}
			again, err := ft.recode(out)
			if err != nil {
				t.Fatalf("%s: re-encoded input does not read back: %v", ft.name, err)
			}
			if !bytes.Equal(out, again) {
				t.Fatalf("%s: re-encoding is not a fixed point:\n%s\nvs\n%s", ft.name, out, again)
			}
		}
	})
}
