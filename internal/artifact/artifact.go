// Package artifact owns the framing shared by the simulator's versioned
// JSONL artifacts: the run archive (internal/runarchive), the scenario
// trace (internal/scenario), the obs snapshot stream (internal/obs) and the
// telemetry export (internal/tseries).
//
// Every line is one envelope object {"kind": K, "<K>": {...}}. The first
// line is the header, whose payload starts with the format tag and schema
// version (the embedded Header); the last line is the footer. A format
// declares its tag, version and record table in a Frame; the codec does
// the rest — the version check, payload presence, unknown kinds, content
// after the footer, a missing footer and the line cap — and reports every
// failure as one typed *Error naming the line.
package artifact

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MaxLine bounds one line of an artifact.
const MaxLine = 64 << 20

// Error reasons shared by every format.
const (
	// BadFormat: the input is not this format at all.
	BadFormat = "bad-format"
	// BadVersion: the input was written by a newer schema version.
	BadVersion = "bad-version"
	// Corrupt: the input is the right format but its contents are
	// inconsistent (bad JSON, missing payloads, missing footer, count
	// mismatches).
	Corrupt = "corrupt"
)

// Error is the typed error for every way an artifact can fail to load, so
// callers can tell "not this format" from "newer schema" from "damaged
// file" without string matching. Formats may add reasons of their own.
type Error struct {
	// Format is the format tag of the artifact being read.
	Format string
	// Reason is one of the reason constants above or a format's own.
	Reason string
	// Line is the 1-based offending line, 0 when not line-specific.
	Line int
	// Detail is the human-readable specifics.
	Detail string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("%s: %s at line %d: %s", e.Format, e.Reason, e.Line, e.Detail)
	}
	return fmt.Sprintf("%s: %s: %s", e.Format, e.Reason, e.Detail)
}

// Header opens every header payload. Formats embed it first in their own
// header type, so the tag and version lead the line.
type Header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

// Frame declares one format: its tag, the newest schema version it reads
// and writes, and the payload key of any record kind whose key is not the
// kind's own name.
type Frame struct {
	Format  string
	Version int
	Fields  map[string]string
}

// Header returns the header prefix a writer of this format stamps.
func (f Frame) Header() Header { return Header{Format: f.Format, Version: f.Version} }

// Errorf builds a typed error of this format.
func (f Frame) Errorf(reason string, line int, format string, args ...any) *Error {
	return &Error{Format: f.Format, Reason: reason, Line: line, Detail: fmt.Sprintf(format, args...)}
}

func (f Frame) field(kind string) string {
	if k := f.Fields[kind]; k != "" {
		return k
	}
	return kind
}

// Record consumes the payload of one body line. A returned error is
// reported as corruption at that line.
type Record func(payload []byte) error

// Decode returns a Record that unmarshals each payload into a fresh T and
// hands it to use.
func Decode[T any](use func(T)) Record {
	return func(payload []byte) error {
		var v T
		if err := json.Unmarshal(payload, &v); err != nil {
			return err
		}
		use(v)
		return nil
	}
}

// Read parses one framed artifact. The header payload is checked against
// the frame's tag and version and then unmarshalled into header; body lines
// go to the record of their kind; the footer payload is unmarshalled into
// footer. Every failure is a typed *Error.
func (f Frame) Read(r io.Reader, header any, records map[string]Record, footer any) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLine)
	n := 0
	sawHeader, sawFooter := false, false
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var env map[string]json.RawMessage
		var kind string
		err := json.Unmarshal(line, &env)
		if raw, ok := env["kind"]; ok && err == nil {
			err = json.Unmarshal(raw, &kind)
		}
		if err != nil {
			if !sawHeader {
				return f.Errorf(BadFormat, n, "not JSONL: %v", err)
			}
			return f.Errorf(Corrupt, n, "%v", err)
		}
		payload := env[f.field(kind)]
		present := len(payload) > 0 && string(payload) != "null"

		if !sawHeader {
			if kind != "header" || !present {
				return f.Errorf(BadFormat, n, "first line is not a %s header", f.Format)
			}
			var h Header
			if err := json.Unmarshal(payload, &h); err != nil {
				return f.Errorf(BadFormat, n, "header: %v", err)
			}
			if h.Format != f.Format {
				return f.Errorf(BadFormat, n, "format %q, want %q", h.Format, f.Format)
			}
			if h.Version < 1 || h.Version > f.Version {
				return f.Errorf(BadVersion, n, "version %d, reader supports <= %d", h.Version, f.Version)
			}
			if err := json.Unmarshal(payload, header); err != nil {
				return f.Errorf(Corrupt, n, "header: %v", err)
			}
			sawHeader = true
			continue
		}
		if sawFooter {
			return f.Errorf(Corrupt, n, "content after footer")
		}
		rec := records[kind]
		if kind == "footer" {
			rec = func(p []byte) error { return json.Unmarshal(p, footer) }
			sawFooter = true
		}
		if rec == nil {
			// Unknown kinds from same-or-older versions are corruption; a
			// newer writer would have bumped the version and been refused.
			return f.Errorf(Corrupt, n, "unknown line kind %q", kind)
		}
		if !present {
			return f.Errorf(Corrupt, n, "%s line without payload", kind)
		}
		if err := rec(payload); err != nil {
			return f.Errorf(Corrupt, n, "%s: %v", kind, err)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return f.Errorf(Corrupt, n+1, "line longer than %d bytes", MaxLine)
		}
		return f.Errorf(Corrupt, n+1, "%v", err)
	}
	if !sawHeader {
		return f.Errorf(BadFormat, 0, "empty file")
	}
	if !sawFooter {
		return f.Errorf(Corrupt, 0, "missing footer (truncated file)")
	}
	return nil
}

// Writer frames one artifact: a header record first, body records, a footer
// record last. The first error sticks: later records are dropped and Flush
// returns it.
type Writer struct {
	frame Frame
	bw    *bufio.Writer
	line  bytes.Buffer
	enc   *json.Encoder
	err   error
}

// NewWriter returns a buffered writer of this format onto w.
func (f Frame) NewWriter(w io.Writer) *Writer {
	fw := &Writer{frame: f, bw: bufio.NewWriter(w)}
	fw.enc = json.NewEncoder(&fw.line)
	return fw
}

// Put writes one record line {"kind": kind, "<field>": v}.
func (w *Writer) Put(kind string, v any) {
	if w.err != nil {
		return
	}
	w.line.Reset()
	w.line.WriteString(`{"kind":"`)
	w.line.WriteString(kind)
	w.line.WriteString(`","`)
	w.line.WriteString(w.frame.field(kind))
	w.line.WriteString(`":`)
	if w.err = w.enc.Encode(v); w.err != nil {
		return
	}
	w.line.Truncate(w.line.Len() - 1) // Encode's trailing newline
	w.line.WriteString("}\n")
	_, w.err = w.bw.Write(w.line.Bytes())
}

// Flush writes out buffered lines and returns the first error.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}
