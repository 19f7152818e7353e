// Package serde provides the serialization layer of the paper's
// architecture: function inputs are "'pickled' (serialized) into
// transferable files" for dispatch to workers, and outputs are pickled for
// transfer back to the scheduler. It wraps encoding/gob with a small framed
// envelope carrying a format version and a payload kind, measures payload
// sizes (which feed transfer costs), and refuses to decode foreign frames.
package serde

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
)

// Kind tags what a frame carries.
type Kind uint8

// Frame kinds.
const (
	KindArgs   Kind = 1 // function arguments
	KindResult Kind = 2 // function return value
	KindError  Kind = 3 // remote exception (traceback analogue)
)

// magic identifies lfm serde frames ("LF").
var magic = [2]byte{'L', 'F'}

// version is the current frame format.
const version = 1

// maxPayload caps a frame's payload at 1 GiB.
const maxPayload = 1 << 30

// header is the fixed-size frame prefix.
type header struct {
	Magic   [2]byte
	Version uint8
	Kind    Kind
	Length  uint32
}

// Encode serializes v into a framed payload of the given kind.
func Encode(kind Kind, v any) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&v); err != nil {
		return nil, fmt.Errorf("serde: encode: %w", err)
	}
	if body.Len() > maxPayload {
		return nil, fmt.Errorf("serde: payload %d bytes exceeds 1GiB frame limit", body.Len())
	}
	var out bytes.Buffer
	h := header{Magic: magic, Version: version, Kind: kind, Length: uint32(body.Len())}
	if err := binary.Write(&out, binary.BigEndian, h); err != nil {
		return nil, err
	}
	out.Write(body.Bytes())
	return out.Bytes(), nil
}

// Decode deserializes a frame, returning its kind and value.
func Decode(data []byte) (Kind, any, error) {
	kind, body, err := split(data)
	if err != nil {
		return 0, nil, err
	}
	var v any
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil {
		return 0, nil, fmt.Errorf("serde: decode: %w", err)
	}
	return kind, v, nil
}

// split validates the envelope and returns the kind and the payload, a
// subslice of data. The claimed length is checked against the limit and
// against the bytes present before anything is allocated, so a forged
// header cannot demand a buffer the frame does not carry.
func split(data []byte) (Kind, []byte, error) {
	var h header
	if err := binary.Read(bytes.NewReader(data), binary.BigEndian, &h); err != nil {
		return 0, nil, fmt.Errorf("serde: short frame: %w", err)
	}
	if h.Magic != magic {
		return 0, nil, fmt.Errorf("serde: not an lfm frame")
	}
	if h.Version != version {
		return 0, nil, fmt.Errorf("serde: unsupported frame version %d", h.Version)
	}
	if h.Kind < KindArgs || h.Kind > KindError {
		return 0, nil, fmt.Errorf("serde: unknown frame kind %d", h.Kind)
	}
	if h.Length > maxPayload {
		return 0, nil, fmt.Errorf("serde: payload %d bytes exceeds 1GiB frame limit", h.Length)
	}
	body := data[binary.Size(h):]
	if uint64(len(body)) != uint64(h.Length) {
		return 0, nil, fmt.Errorf("serde: header claims %d payload bytes, frame carries %d", h.Length, len(body))
	}
	return h.Kind, body, nil
}

// PeekKind returns a frame's kind without decoding its payload.
func PeekKind(data []byte) (Kind, error) {
	kind, _, err := split(data)
	return kind, err
}

// RemoteError is a serialized task failure — the stack-traceback-in-the-
// result-queue mechanism of §VI-B1.
type RemoteError struct {
	Message   string
	Traceback string
}

func (e *RemoteError) Error() string { return "serde: remote error: " + e.Message }

// EncodeError frames a remote failure.
func EncodeError(msg, traceback string) ([]byte, error) {
	return Encode(KindError, &RemoteError{Message: msg, Traceback: traceback})
}

// DecodeResult interprets a result-or-error frame: KindResult frames return
// the value; KindError frames return the remote error; args frames are
// rejected.
func DecodeResult(data []byte) (any, error) {
	kind, v, err := Decode(data)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindResult:
		return v, nil
	case KindError:
		if re, ok := v.(*RemoteError); ok {
			return nil, re
		}
		return nil, fmt.Errorf("serde: malformed error frame (%T)", v)
	}
	return nil, fmt.Errorf("serde: expected result frame, got kind %d", kind)
}

func init() {
	// Types that cross the wire must be registered for the any-encoding.
	gob.Register(&RemoteError{})
	gob.Register([]any{})
	gob.Register(map[string]any{})
	gob.Register([]float64{})
	gob.Register([]int{})
	gob.Register([]string{})
}

// Register makes a concrete type encodable inside frames (a gob.Register
// passthrough, so callers need not import encoding/gob).
func Register(v any) { gob.Register(v) }
