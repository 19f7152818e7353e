package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"lfm/internal/artifact"
	"lfm/internal/wq"
)

// The tentpole property: record → replay is bit-exact. For each seed the
// replay must reproduce the recorded outcome digest, the summary JSON byte
// for byte, and the full scheduler event stream byte for byte — and
// recording twice at the same seed must yield identical trace files.
func TestTraceRoundTrip(t *testing.T) {
	s, err := Get("diurnal-tenants")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{0, 7} {
		seed := seed
		t.Run(map[int64]string{0: "default-seed", 7: "seed-7"}[seed], func(t *testing.T) {
			t.Parallel()
			recTr := &wq.Trace{}
			res, data, err := s.Record(seed, recTr)
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			if !res.Passed {
				for _, iv := range res.Invariants {
					if !iv.OK {
						t.Errorf("recording run failed invariant %s: %s", iv.Name, iv.Error)
					}
				}
			}

			repTr := &wq.Trace{}
			ro, err := ReplayTrace(data, repTr)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if err := ro.Verify(); err != nil {
				t.Fatalf("digest verify: %v", err)
			}
			if ro.Digest != ro.RecordedDigest {
				t.Fatalf("digest mismatch: recorded %s, replayed %s", ro.RecordedDigest, ro.Digest)
			}

			var recSum, repSum bytes.Buffer
			if err := res.Outcome.WriteSummaryJSON(&recSum); err != nil {
				t.Fatal(err)
			}
			if err := ro.Outcome.WriteSummaryJSON(&repSum); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(recSum.Bytes(), repSum.Bytes()) {
				t.Error("summary JSON differs between record and replay")
			}

			var recEv, repEv bytes.Buffer
			if err := recTr.WriteJSON(&recEv); err != nil {
				t.Fatal(err)
			}
			if err := repTr.WriteJSON(&repEv); err != nil {
				t.Fatal(err)
			}
			if recEv.Len() == 0 {
				t.Fatal("recording run produced an empty scheduler event stream")
			}
			if !bytes.Equal(recEv.Bytes(), repEv.Bytes()) {
				t.Errorf("scheduler event stream differs between record and replay (%d vs %d bytes)",
					recEv.Len(), repEv.Len())
			}

			_, data2, err := s.Record(seed, nil)
			if err != nil {
				t.Fatalf("re-record: %v", err)
			}
			if !bytes.Equal(data, data2) {
				t.Error("two recordings at the same seed produced different trace bytes")
			}
		})
	}
}

// Round-trip through a scenario with no serving frontend (batch submission
// path: no arrivals streams in the trace).
func TestTraceRoundTripBatch(t *testing.T) {
	s, err := Get("heavy-tail")
	if err != nil {
		t.Fatal(err)
	}
	res, data, err := s.Record(0, nil)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	ro, err := ReplayTrace(data, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := ro.Verify(); err != nil {
		t.Fatalf("digest verify: %v", err)
	}
	if ro.Header.Scenario != "heavy-tail" || ro.Header.Workload != res.Summary.Workload {
		t.Errorf("header mismatch: %+v", ro.Header)
	}
	// A recorded trace re-encodes to exactly its own bytes.
	parsed, err := ReadTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := parsed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("ReadTrace(x).Encode() differs from x")
	}
}

// reasonOf extracts the typed reason from a trace error.
func reasonOf(t *testing.T, err error) string {
	t.Helper()
	var te *artifact.Error
	if !errors.As(err, &te) || te.Format != TraceFormat {
		t.Fatalf("expected a trace *artifact.Error, got %T: %v", err, err)
	}
	return te.Reason
}

// editLine JSON-decodes line i of the trace, applies edit, and re-encodes.
func editLine(t *testing.T, data []byte, i int, edit func(map[string]any)) []byte {
	t.Helper()
	lines := bytes.Split(data, []byte("\n"))
	var m map[string]any
	if err := json.Unmarshal(lines[i], &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	lines[i] = out
	return bytes.Join(lines, []byte("\n"))
}

func TestTraceDecodeRejects(t *testing.T) {
	s, err := Get("heavy-tail")
	if err != nil {
		t.Fatal(err)
	}
	_, data, err := s.Record(0, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty", func(t *testing.T) {
		_, err := ReplayTrace(nil, nil)
		if got := reasonOf(t, err); got != artifact.BadFormat {
			t.Errorf("reason = %q, want %q", got, artifact.BadFormat)
		}
	})

	t.Run("not-json", func(t *testing.T) {
		_, err := ReplayTrace([]byte("this is not a trace\n"), nil)
		if got := reasonOf(t, err); got != artifact.BadFormat {
			t.Errorf("reason = %q, want %q", got, artifact.BadFormat)
		}
	})

	t.Run("wrong-format-tag", func(t *testing.T) {
		bad := editLine(t, data, 0, func(m map[string]any) {
			m["header"].(map[string]any)["format"] = "some-other-trace"
		})
		_, err := ReplayTrace(bad, nil)
		if got := reasonOf(t, err); got != artifact.BadFormat {
			t.Errorf("reason = %q, want %q", got, artifact.BadFormat)
		}
	})

	t.Run("version-bump", func(t *testing.T) {
		bad := editLine(t, data, 0, func(m map[string]any) {
			m["header"].(map[string]any)["version"] = TraceVersion + 1
		})
		_, err := ReplayTrace(bad, nil)
		if got := reasonOf(t, err); got != artifact.BadVersion {
			t.Errorf("reason = %q, want %q", got, artifact.BadVersion)
		}
	})

	t.Run("garbage-mid-file", func(t *testing.T) {
		lines := bytes.Split(data, []byte("\n"))
		lines[1] = []byte("{{{ corrupted")
		_, err := ReplayTrace(bytes.Join(lines, []byte("\n")), nil)
		if got := reasonOf(t, err); got != artifact.Corrupt {
			t.Errorf("reason = %q, want %q", got, artifact.Corrupt)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		// Drop the footer line (the trace ends with footer + trailing \n).
		trimmed := bytes.TrimRight(data, "\n")
		cut := bytes.LastIndexByte(trimmed, '\n')
		_, err := ReplayTrace(trimmed[:cut+1], nil)
		if got := reasonOf(t, err); got != artifact.Corrupt {
			t.Errorf("reason = %q, want %q", got, artifact.Corrupt)
		}
	})

	t.Run("digest-tamper", func(t *testing.T) {
		lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
		last := len(lines) - 1
		tampered := editLine(t, bytes.Join(lines, []byte("\n")), last, func(m map[string]any) {
			m["footer"].(map[string]any)["digest"] = "sha256:" + strings.Repeat("0", 64)
		})
		ro, err := ReplayTrace(append(tampered, '\n'), nil)
		if err != nil {
			t.Fatalf("replay of digest-tampered trace should run: %v", err)
		}
		verr := ro.Verify()
		if got := reasonOf(t, verr); got != DigestMismatch {
			t.Errorf("reason = %q, want %q", got, DigestMismatch)
		}
	})
}
