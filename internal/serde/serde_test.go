package serde

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripArgs(t *testing.T) {
	in := []any{1, "two", []float64{3, 4.5}}
	data, err := Encode(KindArgs, in)
	if err != nil {
		t.Fatal(err)
	}
	kind, v, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindArgs {
		t.Fatalf("kind = %d", kind)
	}
	if !reflect.DeepEqual(v, in) {
		t.Fatalf("v = %#v, want %#v", v, in)
	}
}

func TestPeekKind(t *testing.T) {
	data, _ := Encode(KindResult, 42)
	kind, err := PeekKind(data)
	if err != nil || kind != KindResult {
		t.Fatalf("kind = %d, %v", kind, err)
	}
}

func TestDecodeResultSuccess(t *testing.T) {
	data, _ := Encode(KindResult, "payload")
	v, err := DecodeResult(data)
	if err != nil || v.(string) != "payload" {
		t.Fatalf("v = %v, %v", v, err)
	}
}

func TestDecodeResultRemoteError(t *testing.T) {
	data, err := EncodeError("kaput", "Traceback (most recent call last): ...")
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeResult(data)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T)", err, err)
	}
	if re.Message != "kaput" || re.Traceback == "" {
		t.Fatalf("remote error = %+v", re)
	}
}

func TestDecodeResultRejectsArgsFrame(t *testing.T) {
	data, _ := Encode(KindArgs, 1)
	if _, err := DecodeResult(data); err == nil {
		t.Fatal("args frame accepted as result")
	}
}

func TestRejectForeignFrames(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("garbage that is definitely not a frame"),
		{'L', 'F', 99, 1, 0, 0, 0, 0}, // bad version
		{'X', 'Y', 1, 1, 0, 0, 0, 0},  // bad magic
		{'L', 'F', 1, 9, 0, 0, 0, 0},  // bad kind
	}
	for _, c := range cases {
		if _, _, err := Decode(c); err == nil {
			t.Errorf("Decode(%v) succeeded", c)
		}
	}
}

func TestTruncatedPayload(t *testing.T) {
	data, _ := Encode(KindResult, "hello world")
	if _, _, err := Decode(data[:len(data)-3]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestForgedLengthAllocatesNothing checks that a header claiming more
// payload than the frame carries is refused before any buffer of the
// claimed size exists.
func TestForgedLengthAllocatesNothing(t *testing.T) {
	cases := map[string][]byte{
		"over the limit":  {'L', 'F', 1, 2, 0x80, 0, 0, 0}, // claims 1<<31 bytes
		"under the limit": {'L', 'F', 1, 2, 0x3f, 0, 0, 0}, // claims ~1 GiB
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := Decode(frame)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.HasPrefix(err.Error(), "serde:") {
				t.Fatalf("Decode = %v, want a serde: error", err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Fatalf("rejecting the frame allocated %d bytes", n)
			}
		})
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	data, _ := Encode(KindResult, "hello world")
	if _, _, err := Decode(append(data, 0)); err == nil {
		t.Fatal("frame with bytes after its payload accepted")
	}
}

func TestCustomTypeRegistration(t *testing.T) {
	type Histogram struct {
		Bins   []int
		Counts []float64
	}
	Register(Histogram{})
	data, err := Encode(KindResult, Histogram{Bins: []int{1, 2}, Counts: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	h := v.(Histogram)
	if len(h.Bins) != 2 || h.Counts[0] != 0.5 {
		t.Fatalf("h = %+v", h)
	}
}

// Property: round-tripping arbitrary string/int payloads preserves values
// and always reports the requested kind.
func TestRoundTripProperty(t *testing.T) {
	prop := func(s string, n int, useResult bool) bool {
		kind := KindArgs
		if useResult {
			kind = KindResult
		}
		payload := map[string]any{"s": s, "n": n}
		data, err := Encode(kind, payload)
		if err != nil {
			return false
		}
		gotKind, v, err := Decode(data)
		if err != nil || gotKind != kind {
			return false
		}
		m, ok := v.(map[string]any)
		return ok && m["s"] == s && m["n"] == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameSizeTracksPayload(t *testing.T) {
	small, _ := Encode(KindArgs, make([]float64, 10))
	big, _ := Encode(KindArgs, make([]float64, 10000))
	if len(big) < 100*len(small)/2 {
		t.Fatalf("sizes: small=%d big=%d", len(small), len(big))
	}
}

// FuzzDecode feeds arbitrary bytes to Decode. No input may panic, a
// rejected input must fail with a serde: error, and an accepted frame must
// re-encode to a frame that decodes to the same kind and an equal value.
func FuzzDecode(f *testing.F) {
	seeds := []struct {
		kind Kind
		v    any
	}{
		{KindError, &RemoteError{Message: "kaput", Traceback: "Traceback ..."}},
		{KindArgs, []any{1, "two", 3.5, true}},
		{KindResult, map[string]any{"xs": []float64{1, 2.5}, "label": "batch"}},
		{KindResult, []float64{0, -1.5, math.Inf(1)}},
		{KindArgs, []int{1, 2, 3}},
		{KindResult, []string{"a", "", "c"}},
	}
	for _, s := range seeds {
		data, err := Encode(s.kind, s.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{'L', 'F', 1, 2, 0x80, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, v, err := Decode(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "serde:") {
				t.Fatalf("error without the serde: prefix: %v", err)
			}
			return
		}
		again, err := Encode(kind, v)
		if err != nil {
			t.Fatalf("accepted value does not re-encode: %v", err)
		}
		kind2, v2, err := Decode(again)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if kind2 != kind {
			t.Fatalf("kind %d re-decoded as %d", kind, kind2)
		}
		if !sameValue(reflect.ValueOf(v), reflect.ValueOf(v2)) {
			t.Fatalf("value %#v re-decoded as %#v", v, v2)
		}
	})
}

// sameValue is reflect.DeepEqual except that floats and complexes compare
// by bits, so a NaN, which gob carries exactly, equals itself.
func sameValue(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Complex64, reflect.Complex128:
		x, y := a.Complex(), b.Complex()
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return false
		}
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !sameValue(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}
