package trace

import (
	"bytes"
	"strings"
	"testing"

	"lfm/internal/sim"
)

func TestStoreBeginEnd(t *testing.T) {
	s := NewStore()
	id := s.Begin(Span{Kind: KindTask, Task: 3, Worker: -1, Start: 1})
	if id != 1 {
		t.Fatalf("first span ID = %d, want 1", id)
	}
	if sp := s.Span(id); !sp.Open() || sp.Task != 3 {
		t.Fatalf("span = %+v", sp)
	}
	s.End(id, 5, OutcomeDone, "")
	sp := s.Span(id)
	if sp.End != 5 || sp.Outcome != OutcomeDone {
		t.Fatalf("span after End = %+v", sp)
	}
	// Double-close is a no-op.
	s.End(id, 9, OutcomeFailed, "later")
	if sp := s.Span(id); sp.End != 5 || sp.Outcome != OutcomeDone || sp.Detail != "" {
		t.Fatalf("span mutated by double close: %+v", sp)
	}
	if s.EndTime() != 5 {
		t.Fatalf("end time = %v", s.EndTime())
	}
}

func TestStoreNilSafety(t *testing.T) {
	var s *Store
	if id := s.Begin(Span{Kind: KindTask}); id != NoSpan {
		t.Fatalf("nil Begin = %d", id)
	}
	s.End(1, 1, OutcomeOK, "")
	s.SetWorker(1, 2)
	s.AddLink(1, 2, "dep")
	if s.Len() != 0 || s.Instant(Span{}, 1) != NoSpan {
		t.Fatal("nil store recorded something")
	}
	if s.CriticalPath() != nil || s.Bottlenecks(false) != nil || s.Slowest(3) != nil {
		t.Fatal("nil store produced analysis")
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestStoreChildrenAndLinks(t *testing.T) {
	s := NewStore()
	root := s.Begin(Span{Kind: KindTask, Task: 1, Worker: -1, Start: 0})
	c1 := s.Begin(Span{Kind: KindDepWait, Parent: root, Task: 1, Worker: -1, Start: 0})
	c2 := s.Begin(Span{Kind: KindAttempt, Parent: root, Task: 1, Worker: -1, Start: 2, Attempt: 1})
	s.SetWorker(c2, 4)
	kids := s.Children(root)
	if len(kids) != 2 || kids[0].ID != c1 || kids[1].ID != c2 {
		t.Fatalf("children = %+v", kids)
	}
	if s.Span(c2).Worker != 4 {
		t.Fatalf("worker = %d", s.Span(c2).Worker)
	}
	other := s.Begin(Span{Kind: KindTask, Task: 2, Worker: -1, Start: 0})
	s.AddLink(root, other, "dep")
	s.AddLink(NoSpan, other, "dep") // dropped
	if len(s.Links()) != 1 {
		t.Fatalf("links = %+v", s.Links())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := buildTwoTaskStore()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() || len(got.Links()) != len(s.Links()) {
		t.Fatalf("round trip: %d spans %d links, want %d/%d",
			got.Len(), len(got.Links()), s.Len(), len(s.Links()))
	}
	for i, sp := range got.Spans() {
		if sp != s.Spans()[i] {
			t.Fatalf("span %d = %+v, want %+v", i, sp, s.Spans()[i])
		}
	}
	// The analyses must work identically on a reloaded store.
	cp := got.CriticalPath()
	if cp == nil || len(cp.Steps) == 0 {
		t.Fatal("no critical path after reload")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		`{"format":"other","version":1,"spans":[]}`,
		`{"format":"lfm-trace","version":99,"spans":[]}`,
		`{"format":"lfm-trace","version":1,"spans":[{"id":7}]}`,
		`{"format":"lfm-trace","version":1,"spans":[],"links":[{"from":1,"to":2}]}`,
		`not json`,
	} {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("ReadJSON(%q) accepted", in)
		}
	}
}

func TestSlowest(t *testing.T) {
	s := buildTwoTaskStore()
	top := s.Slowest(2, KindExecute)
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	end := s.EndTime()
	if top[0].Duration(end) < top[1].Duration(end) {
		t.Fatalf("not sorted: %v < %v", top[0].Duration(end), top[1].Duration(end))
	}
	for _, sp := range top {
		if sp.Kind != KindExecute {
			t.Fatalf("kind = %v", sp.Kind)
		}
	}
}

// buildTwoTaskStore hand-builds the span tree a two-task chain A -> B
// produces: A runs [0,10], B waits on A then runs [10,18].
func buildTwoTaskStore() *Store {
	s := NewStore()
	// Task A.
	a := s.Begin(Span{Kind: KindTask, Task: 0, Category: "prep", Worker: -1, Start: 0})
	aw := s.Begin(Span{Kind: KindDepWait, Parent: a, Task: 0, Category: "prep", Worker: -1, Start: 0})
	s.End(aw, 0, OutcomeOK, "")
	at := s.Begin(Span{Kind: KindAttempt, Parent: a, Task: 0, Category: "prep", Worker: 1, Start: 0, Attempt: 1})
	arq := s.Begin(Span{Kind: KindReadyQueue, Parent: at, Task: 0, Category: "prep", Worker: -1, Start: 0})
	s.End(arq, 1, OutcomeOK, "")
	ast := s.Begin(Span{Kind: KindStage, Parent: at, Task: 0, Category: "prep", Worker: 1, Start: 1})
	af := s.Begin(Span{Kind: KindStageEnv, Parent: ast, Task: 0, Category: "prep", Worker: 1, Start: 1, Detail: "env.tgz"})
	s.End(af, 3, OutcomeOK, "")
	s.End(ast, 3, OutcomeOK, "")
	ax := s.Begin(Span{Kind: KindExecute, Parent: at, Task: 0, Category: "prep", Worker: 1, Start: 3})
	s.Instant(Span{Kind: KindPoll, Parent: ax, Task: 0, Worker: 1}, 4)
	s.End(ax, 9, OutcomeOK, "")
	ao := s.Begin(Span{Kind: KindOutput, Parent: at, Task: 0, Category: "prep", Worker: 1, Start: 9})
	s.End(ao, 10, OutcomeOK, "")
	s.End(at, 10, OutcomeOK, "")
	s.End(a, 10, OutcomeDone, "")

	// Task B, depending on A.
	b := s.Begin(Span{Kind: KindTask, Task: 1, Category: "analyze", Worker: -1, Start: 0})
	bw := s.Begin(Span{Kind: KindDepWait, Parent: b, Task: 1, Category: "analyze", Worker: -1, Start: 0})
	s.End(bw, 10, OutcomeOK, "")
	bt := s.Begin(Span{Kind: KindAttempt, Parent: b, Task: 1, Category: "analyze", Worker: 2, Start: 10, Attempt: 1})
	brq := s.Begin(Span{Kind: KindReadyQueue, Parent: bt, Task: 1, Category: "analyze", Worker: -1, Start: 10})
	s.End(brq, 11, OutcomeOK, "")
	bst := s.Begin(Span{Kind: KindStage, Parent: bt, Task: 1, Category: "analyze", Worker: 2, Start: 11})
	bf := s.Begin(Span{Kind: KindStageInput, Parent: bst, Task: 1, Category: "analyze", Worker: 2, Start: 11, Detail: "data.root"})
	s.End(bf, 12, OutcomeOK, "")
	s.End(bst, 12, OutcomeOK, "")
	bx := s.Begin(Span{Kind: KindExecute, Parent: bt, Task: 1, Category: "analyze", Worker: 2, Start: 12})
	s.End(bx, 17, OutcomeOK, "")
	bo := s.Begin(Span{Kind: KindOutput, Parent: bt, Task: 1, Category: "analyze", Worker: 2, Start: 17})
	s.End(bo, 18, OutcomeOK, "")
	s.End(bt, 18, OutcomeOK, "")
	s.End(b, 18, OutcomeDone, "")

	s.AddLink(a, b, "dep")

	// An unrelated worker span.
	wsp := s.Begin(Span{Kind: KindWorker, Task: -1, Worker: 1, Start: 0})
	s.End(wsp, 18, OutcomeOK, "")
	return s
}

func TestSpanDurationClipsOpenSpans(t *testing.T) {
	sp := Span{Start: 5, End: -1}
	if d := sp.Duration(9); d != 4 {
		t.Fatalf("open duration = %v", d)
	}
	if d := sp.Duration(3); d != 0 {
		t.Fatalf("open duration before start = %v", d)
	}
	closed := Span{Start: 2, End: 7}
	if d := closed.Duration(sim.Time(100)); d != 5 {
		t.Fatalf("closed duration = %v", d)
	}
}

// fillStore records n open task spans, span i+1 starting at time i.
func fillStore(s *Store, n int) {
	for i := 0; i < n; i++ {
		s.Begin(Span{Kind: KindTask, Task: i, Worker: -1, Start: sim.Time(i)})
	}
}

func TestChunkBoundaryUpdates(t *testing.T) {
	s := NewStore()
	fillStore(s, 2*chunkSpans+3)
	// The last span of the first chunk, the first of the second, and the
	// first of the third.
	for _, id := range []SpanID{chunkSpans, chunkSpans + 1, 2*chunkSpans + 1} {
		s.SetWorker(id, int(id))
		s.End(id, sim.Time(id)+0.5, OutcomeOK, "closed")
		sp := s.Span(id)
		if sp.ID != id || sp.Task != int(id)-1 || sp.Worker != int(id) ||
			sp.End != sim.Time(id)+0.5 || sp.Outcome != OutcomeOK || sp.Detail != "closed" {
			t.Fatalf("span %d = %+v", id, sp)
		}
	}
	if sp := s.Span(2*chunkSpans + 4); sp.ID != NoSpan || sp.Task != -1 {
		t.Fatalf("span past the end = %+v", sp)
	}
	spans := s.Spans()
	if len(spans) != 2*chunkSpans+3 || cap(spans) != len(spans) {
		t.Fatalf("Spans() len %d cap %d, want exactly %d", len(spans), cap(spans), 2*chunkSpans+3)
	}
	for i, sp := range spans {
		if sp.ID != SpanID(i+1) || sp.Task != i {
			t.Fatalf("spans[%d] = %+v", i, sp)
		}
	}
	if spans[chunkSpans].Worker != chunkSpans+1 {
		t.Fatalf("compacted span lost its worker: %+v", spans[chunkSpans])
	}
}

func TestSpansMidRecording(t *testing.T) {
	s := NewStore()
	fillStore(s, chunkSpans+10)
	first := s.Spans()
	if len(first) != chunkSpans+10 {
		t.Fatalf("first Spans() = %d spans", len(first))
	}
	// Updates to compacted spans show in the slice already handed out,
	// and recording continues with the next ID.
	s.End(5, 7, OutcomeDone, "")
	if first[4].End != 7 {
		t.Fatalf("End after Spans() not visible: %+v", first[4])
	}
	id := s.Instant(Span{Kind: KindPoll, Task: 1, Worker: 2}, 3)
	if id != chunkSpans+11 {
		t.Fatalf("span after Spans() got ID %d, want %d", id, chunkSpans+11)
	}
	fillStore(s, chunkSpans)
	s.SetWorker(id, 9)
	if sp := s.Span(id); sp.Worker != 9 || sp.Start != 3 || sp.End != 3 {
		t.Fatalf("instant after compaction = %+v", sp)
	}
	all := s.Spans()
	if len(all) != 2*chunkSpans+11 || s.Len() != len(all) {
		t.Fatalf("second Spans() = %d spans, Len %d", len(all), s.Len())
	}
	for i, sp := range all {
		if sp.ID != SpanID(i+1) {
			t.Fatalf("spans[%d] has ID %d", i, sp.ID)
		}
	}
	if all[4].End != 7 || all[id-1].Worker != 9 {
		t.Fatalf("recompaction lost updates: %+v %+v", all[4], all[id-1])
	}
}

func TestJSONRoundTripAcrossChunks(t *testing.T) {
	s := NewStore()
	fillStore(s, 3*chunkSpans/2)
	s.End(chunkSpans, 2000, OutcomeDone, "")
	s.AddLink(1, chunkSpans+1, "dep")
	var a bytes.Buffer
	if err := s.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() || got.Span(chunkSpans).End != 2000 || len(got.Links()) != 1 {
		t.Fatalf("round trip: %d spans, span %d = %+v, links %v",
			got.Len(), chunkSpans, got.Span(chunkSpans), got.Links())
	}
	var b bytes.Buffer
	if err := got.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("write(read(x)) != x")
	}
	// A loaded store keeps recording after its spans.
	id := got.Begin(Span{Kind: KindTask})
	got.End(id, 1, OutcomeOK, "")
	if int(id) != s.Len()+1 || got.Span(id).Outcome != OutcomeOK {
		t.Fatalf("span after load: ID %d, %+v", id, got.Span(id))
	}
}
