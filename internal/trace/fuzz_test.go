package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"lfm/internal/sim"
)

// Value pools the span store fuzzer picks fields from. The integers include
// values a record cannot hold in int32 and the one it uses as a marker.
var (
	fuzzInts = []int{-1, 0, 1, 2, 7, math.MaxInt32, math.MaxInt32 + 1,
		math.MinInt32, math.MinInt32 - 1, math.MaxInt64, math.MinInt64}
	fuzzKinds    = []Kind{"", KindTask, KindProcEvent, KindExecute, KindAttempt, "ké"}
	fuzzStrings  = []string{"", "a", "b", "category-long", OutcomeOK, OutcomeDone, "f\"1"}
	fuzzOutcomes = []string{"", OutcomeOK, OutcomeDone, OutcomeFailed}
)

// fuzzOps is a byte-driven recording script; every read past the end
// yields 0.
type fuzzOps struct {
	b []byte
	i int
}

func (o *fuzzOps) next() int {
	if o.i >= len(o.b) {
		return 0
	}
	o.i++
	return int(o.b[o.i-1])
}

func (o *fuzzOps) int() int       { return fuzzInts[o.next()%len(fuzzInts)] }
func (o *fuzzOps) str() string    { return fuzzStrings[o.next()%len(fuzzStrings)] }
func (o *fuzzOps) time() sim.Time { return sim.Time(int8(o.next())) / 4 }

// id picks a span ID from -1 through one past the last recorded span.
func (o *fuzzOps) id(n int) SpanID { return SpanID(o.next()%(n+3) - 1) }

func (o *fuzzOps) span(n int) Span {
	sp := Span{Kind: fuzzKinds[o.next()%len(fuzzKinds)], Task: o.int(), Category: o.str(),
		Worker: o.int(), Attempt: o.int(), Start: o.time(), Outcome: o.str(), Detail: o.str()}
	if o.next()%2 == 0 {
		sp.Parent = o.id(n)
	} else {
		sp.Parent = SpanID(o.int())
	}
	return sp
}

// refJSON is what WriteJSON writes for the given spans and links.
func refJSON(t *testing.T, spans []Span, links []Link) []byte {
	t.Helper()
	var b bytes.Buffer
	doc := storeJSON{Format: formatName, Version: formatVersion, Spans: spans, Links: links}
	if err := json.NewEncoder(&b).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkStore compares a store with its reference spans and links: Span for
// every ID (unknown ones included), Spans, EndTime and WriteJSON.
func checkStore(t *testing.T, s *Store, ref []Span, links []Link) {
	t.Helper()
	var end sim.Time
	for _, sp := range ref {
		end = max(end, sp.Start, sp.End)
	}
	if got := s.EndTime(); got != end {
		t.Fatalf("EndTime() = %v, want %v", got, end)
	}
	for id := SpanID(-1); int(id) <= len(ref)+1; id++ {
		want := Span{Task: -1, Worker: -1}
		if id > 0 && int(id) <= len(ref) {
			want = ref[id-1]
		}
		if got := s.Span(id); got != want {
			t.Fatalf("Span(%d) = %+v, want %+v", id, got, want)
		}
	}
	spans := s.Spans()
	if len(spans) != len(ref) || cap(spans) != len(spans) {
		t.Fatalf("Spans() has len %d cap %d, want %d", len(spans), cap(spans), len(ref))
	}
	for i := range ref {
		if spans[i] != ref[i] {
			t.Fatalf("Spans()[%d] = %+v, want %+v", i, spans[i], ref[i])
		}
	}
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if want := refJSON(t, ref, links); !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("WriteJSON =\n%s\nwant\n%s", b.Bytes(), want)
	}
}

// checkLoad reads doc and, if ReadJSON accepts it, checks the loaded store
// against a plain decode of doc and keeps recording into it. It reports
// whether ReadJSON accepted doc.
func checkLoad(t *testing.T, doc []byte) bool {
	t.Helper()
	s, err := ReadJSON(bytes.NewReader(doc))
	if err != nil {
		if !strings.HasPrefix(err.Error(), "trace: ") {
			t.Fatalf("ReadJSON error %q lacks the trace: prefix", err)
		}
		return false
	}
	var plain storeJSON
	if err := json.NewDecoder(bytes.NewReader(doc)).Decode(&plain); err != nil {
		t.Fatalf("ReadJSON accepted what a plain decode rejects: %v", err)
	}
	ref, links := plain.Spans, plain.Links
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if want := refJSON(t, ref, links); !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("re-encoded load =\n%s\nwant\n%s", b.Bytes(), want)
	}
	again, err := ReadJSON(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded load rejected: %v", err)
	}
	var c bytes.Buffer
	if err := again.WriteJSON(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), c.Bytes()) {
		t.Fatalf("write(read(x)) is not a fixed point:\n%s\n%s", b.Bytes(), c.Bytes())
	}
	// Recording continues after the loaded spans.
	sp := Span{Kind: KindTask, Task: math.MaxInt32 + 1, Worker: -1, Start: 1}
	sp.ID = s.Begin(sp)
	s.End(sp.ID, 2, OutcomeOK, "later")
	sp.End, sp.Outcome, sp.Detail = 2, OutcomeOK, "later"
	if int(sp.ID) != len(ref)+1 || s.Span(sp.ID) != sp {
		t.Fatalf("span recorded after the load: ID %d, %+v", sp.ID, s.Span(sp.ID))
	}
	if all := s.Spans(); len(all) != len(ref)+1 || all[len(ref)] != sp {
		t.Fatalf("Spans() after the load has %d spans", len(all))
	}
	return true
}

// FuzzSpanStore runs byte-driven Begin, Instant, End, SetWorker with
// SetPolls, AddLink and Spans sequences against a plain []Span reference: Span, Spans (also
// mid-recording) and WriteJSON must equal the reference. The store's own
// export, and the doc input, go through ReadJSON: accepted input must
// re-encode to what a plain decode gives, reach a fixed point, and take
// further recording.
func FuzzSpanStore(f *testing.F) {
	var two bytes.Buffer
	if err := buildTwoTaskStore().WriteJSON(&two); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 0, 2, 1, 4, 1, 2, 3, 0, 5, 7, 0, 1, 2}, two.String())
	f.Add([]byte{6, 1, 5, 2, 3, 4, 5, 3, 7, 9, 1, 5, 0, 0, 6, 2, 2, 9, 9, 9, 3, 4, 4, 5}, "")
	f.Add([]byte{0, 6, 6, 6, 6, 6, 6, 6, 6, 1, 9, 9, 9, 9, 9, 9, 9, 9, 2, 3, 4, 5, 4}, `{"format":"lfm-trace","version":1,"spans":[]}`)
	f.Add([]byte{6, 255, 6, 255, 5, 6, 255, 6, 255, 6, 255, 2, 200, 8, 1, 3, 3, 1, 7}, "")
	f.Add([]byte{}, `{"format":"lfm-trace","version":1,"spans":[{"id":1,"parent":-2147483648,"kind":"poll","task":4294967296,"worker":-1,"start":0,"end":-1}],"links":[{"from":1,"to":1,"kind":"dep"}]}`)
	f.Add([]byte{}, `{"format":"lfm-trace","version":1,"spans":[{"id":2}]}`)
	// Begin span 1, take Spans, then End it and set its worker.
	f.Add([]byte{0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 5, 2, 2, 8, 1, 1, 3, 2, 4}, "")
	f.Fuzz(func(t *testing.T, script []byte, doc string) {
		ops := &fuzzOps{b: script}
		s := NewStore()
		var ref []Span
		var links []Link
		for ops.i < len(ops.b) {
			switch ops.next() % 7 {
			case 0:
				sp := ops.span(len(ref))
				sp.ID, sp.End = s.Begin(sp), -1
				ref = append(ref, sp)
			case 1:
				sp, at := ops.span(len(ref)), ops.time()
				sp.ID, sp.Start, sp.End = s.Instant(sp, at), at, at
				ref = append(ref, sp)
			case 2:
				id, at := ops.id(len(ref)), ops.time()
				outcome, detail := fuzzOutcomes[ops.next()%len(fuzzOutcomes)], ops.str()
				s.End(id, at, outcome, detail)
				if id > 0 && int(id) <= len(ref) && ref[id-1].End < 0 {
					sp := &ref[id-1]
					sp.End, sp.Outcome = at, outcome
					if detail != "" {
						sp.Detail = detail
					}
				}
			case 3:
				id, w, n := ops.id(len(ref)), ops.int(), ops.int()
				s.SetWorker(id, w)
				s.SetPolls(id, n)
				if id > 0 && int(id) <= len(ref) {
					ref[id-1].Worker, ref[id-1].Polls = w, n
				}
			case 4:
				from, to, kind := ops.id(len(ref)), ops.id(len(ref)), ops.str()
				s.AddLink(from, to, kind)
				if from != NoSpan && to != NoSpan {
					links = append(links, Link{From: from, To: to, Kind: kind})
				}
			case 5:
				if spans := s.Spans(); !slices.Equal(spans, ref) {
					t.Fatalf("mid-recording Spans() = %+v, want %+v", spans, ref)
				}
			case 6:
				// A run of instants; five long ones cross a chunk boundary.
				for range ops.next() {
					sp := Span{Kind: KindProcEvent, Parent: SpanID(len(ref)), Task: len(ref), Worker: -1}
					sp.ID, sp.Start, sp.End = s.Instant(sp, 3), 3, 3
					ref = append(ref, sp)
				}
			}
			if len(ref) > 3*chunkSpans {
				break
			}
		}
		checkStore(t, s, ref, links)

		linked := true
		for _, l := range links {
			linked = linked && l.From > 0 && int(l.From) <= len(ref) && l.To > 0 && int(l.To) <= len(ref)
		}
		if linked {
			var b bytes.Buffer
			if err := s.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			if !checkLoad(t, b.Bytes()) {
				t.Fatal("ReadJSON rejects the store's own export")
			}
		}
		checkLoad(t, []byte(doc))
	})
}
