package trace

import (
	"bytes"
	"cmp"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

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

// TestSlowestAndChildrenMatchSpans checks the record-reading Slowest and
// Children against the same selections made over Spans(), on a store with
// ties, open spans, instants and several kinds, and bounds what Slowest
// allocates: a small fraction of one Spans() copy, whatever the store's
// size.
func TestSlowestAndChildrenMatchSpans(t *testing.T) {
	s := NewStore()
	kinds := []Kind{KindTask, KindExecute, KindStage, KindProcEvent}
	for i := 0; i < 20000; i++ {
		parent := SpanID(0)
		if i > 0 {
			parent = SpanID(i%97 + 1)
		}
		sp := Span{Kind: kinds[i%len(kinds)], Parent: parent, Task: i, Worker: i % 5, Start: sim.Time(i % 300)}
		if i%50 == 7 {
			s.Instant(sp, sp.Start)
			continue
		}
		id := s.Begin(sp)
		if i%13 != 0 { // every 13th span stays open
			s.End(id, sp.Start+sim.Time(i*7919%1000)/10, OutcomeOK, "")
		}
	}
	all := s.Spans()
	end := s.EndTime()
	slowest := func(n int, want ...Kind) []Span {
		var out []Span
		for _, sp := range all {
			if (len(want) == 0 || slices.Contains(want, sp.Kind)) && sp.Duration(end) > 0 {
				out = append(out, sp)
			}
		}
		slices.SortStableFunc(out, func(a, b Span) int {
			return -cmp.Compare(a.Duration(end), b.Duration(end))
		})
		return out[:min(n, len(out))]
	}
	for _, tc := range []struct {
		n     int
		kinds []Kind
	}{{1, nil}, {5, nil}, {40, []Kind{KindExecute}}, {7, []Kind{KindStage, KindTask}}, {len(all) + 3, nil}} {
		if got, want := s.Slowest(tc.n, tc.kinds...), slowest(tc.n, tc.kinds...); !reflect.DeepEqual(got, want) {
			t.Fatalf("Slowest(%d, %v) differs from a sort over Spans():\n%v\nwant\n%v", tc.n, tc.kinds, got, want)
		}
	}
	for _, id := range []SpanID{NoSpan, 1, 50, 97, 20001} {
		var want []Span
		for _, sp := range all {
			if sp.Parent == id {
				want = append(want, sp)
			}
		}
		if got := s.Children(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("Children(%d): %d spans, want %d", id, len(got), len(want))
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Slowest(5)
	runtime.ReadMemStats(&after)
	spansCopy := uint64(len(all)) * uint64(unsafe.Sizeof(Span{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > spansCopy/20 {
		t.Fatalf("Slowest(5) allocated %d B on %d spans, want at most 1/20 of one Spans() copy (%d B)", got, len(all), spansCopy)
	}
}

// TestBottlenecksMatchSpans checks Bottlenecks, which reads the records,
// against the computation it replaced, which walked a full Spans() copy:
// per group, dependency waits in creation order and, attempt by attempt in
// creation order, each productive attempt's phases. On 20k spans whose
// phases open in a different order from their attempts, with wasted, open
// and worker-less attempts, the buckets must be equal to the last bit in
// both groupings, and building them may allocate at most 1/20 of one
// Spans() copy.
func TestBottlenecksMatchSpans(t *testing.T) {
	s := NewStore()
	cats := []string{"sim", "reco", "merge"}
	dur := func(i int) sim.Time { return sim.Time(i*7919%1000) / 7 }
	var clock sim.Time
	for task := 0; s.Len() < 20000; task += 40 {
		attempts := make([]SpanID, 40)
		phases := make([]SpanID, 40)
		for i := range attempts {
			id := task + i
			cat := cats[id%len(cats)]
			root := s.Begin(Span{Kind: KindTask, Task: id, Category: cat, Worker: -1, Start: clock})
			dw := s.Begin(Span{Kind: KindDepWait, Parent: root, Task: id, Category: cat, Worker: -1, Start: clock})
			s.End(dw, clock+dur(id), OutcomeOK, "")
			worker := id % 6
			if id%19 == 0 {
				worker = -1 // never placed
			}
			attempts[i] = s.Begin(Span{Kind: KindAttempt, Parent: root, Task: id, Category: cat, Worker: worker, Start: clock})
			if id%23 != 0 { // a speculative copy opens no ready-queue phase
				phases[i] = s.Begin(Span{Kind: KindReadyQueue, Parent: attempts[i], Task: id, Category: cat, Worker: -1, Start: clock})
			}
		}
		// Each later phase opens in a different order across the batch, as
		// placements and reports do.
		for step, kind := range []Kind{KindStage, KindExecute, KindOutput} {
			for j := range attempts {
				i := (j*(7+2*step) + step) % len(attempts)
				id := task + i
				if id%19 == 0 {
					continue
				}
				clock += dur(id*3+step) / 50
				s.End(phases[i], clock, OutcomeOK, "")
				phases[i] = s.Begin(Span{Kind: kind, Parent: attempts[i], Task: id, Category: cats[id%len(cats)], Worker: id % 6, Start: clock})
				switch kind {
				case KindStage:
					in := s.Begin(Span{Kind: KindStageInput, Parent: phases[i], Task: id, Worker: id % 6, Start: clock})
					s.End(in, clock+dur(id+1)/9, OutcomeOK, "")
				case KindExecute:
					for k := range 8 {
						s.Instant(Span{Kind: KindProcEvent, Parent: phases[i], Task: id, Worker: id % 6}, clock+sim.Time(k))
					}
				}
			}
		}
		for i, a := range attempts {
			id := task + i
			clock += dur(id*5) / 60
			outcome := OutcomeOK
			switch {
			case id%17 == 0:
				continue // still open at the end of the trace
			case id%7 == 0:
				outcome = OutcomeExhausted
			case id%11 == 0:
				outcome = OutcomeLost
			case id%13 == 0:
				outcome = OutcomeCancelled
			}
			s.End(phases[i], clock, outcome, "")
			s.End(a, clock, outcome, "")
		}
	}
	all := s.Spans()
	end := s.EndTime()
	reference := func(byWorker bool) []Bucket {
		children := make(map[SpanID][]Span)
		for _, sp := range all {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
		buckets := map[string]*Bucket{}
		get := func(sp Span) *Bucket {
			g := sp.Category
			if byWorker {
				if sp.Worker < 0 {
					return nil
				}
				g = "worker " + strconv.Itoa(sp.Worker)
			}
			if buckets[g] == nil {
				buckets[g] = &Bucket{Group: g}
			}
			return buckets[g]
		}
		for _, sp := range all {
			if sp.Kind != KindDepWait && sp.Kind != KindAttempt {
				continue
			}
			b := get(sp)
			switch {
			case b == nil:
			case sp.Kind == KindDepWait:
				b.DepWait += sp.Duration(end)
			default:
				b.Attempts++
				if sp.Outcome == OutcomeExhausted || sp.Outcome == OutcomeLost {
					b.Wasted++
					b.Waste += sp.Duration(end)
					continue
				}
				for _, p := range children[sp.ID] {
					switch p.Kind {
					case KindReadyQueue:
						b.Queue += p.Duration(end)
					case KindStage:
						b.Stage += p.Duration(end)
					case KindExecute:
						b.Exec += p.Duration(end)
					case KindOutput:
						b.Output += p.Duration(end)
					}
				}
			}
		}
		var out []Bucket
		for _, b := range buckets {
			out = append(out, *b)
		}
		slices.SortFunc(out, func(a, b Bucket) int {
			if c := cmp.Compare(b.Total(), a.Total()); c != 0 {
				return c
			}
			return strings.Compare(a.Group, b.Group)
		})
		return out
	}
	for _, byWorker := range []bool{false, true} {
		if got, want := s.Bottlenecks(byWorker), reference(byWorker); !reflect.DeepEqual(got, want) {
			t.Fatalf("Bottlenecks(%v) differs from the walk over Spans():\n%+v\nwant\n%+v", byWorker, got, want)
		}
	}

	spansCopy := uint64(len(all)) * uint64(unsafe.Sizeof(Span{}))
	for _, byWorker := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Bottlenecks(byWorker)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > spansCopy/20 {
			t.Fatalf("Bottlenecks(%v) allocated %d B on %d spans, want at most 1/20 of one Spans() copy (%d B)", byWorker, got, len(all), spansCopy)
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
	s.Instant(Span{Kind: KindProcEvent, Parent: ax, Task: 0, Worker: 1}, 4)
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
	// Updates after Spans() reach the store, and recording continues with
	// the next ID.
	s.End(5, 7, OutcomeDone, "")
	if sp := s.Span(5); sp.End != 7 {
		t.Fatalf("End after Spans() not visible: %+v", sp)
	}
	id := s.Instant(Span{Kind: KindProcEvent, Task: 1, Worker: 2}, 3)
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

// TestWideIntsReadBackExactly records integers that do not fit a record's
// int32 fields, among them the value a record uses as its marker, and
// checks every one reads back exactly, also after SetWorker and SetPolls
// move a worker or a poll count between narrow and wide values and after a
// JSON round trip.
func TestWideIntsReadBackExactly(t *testing.T) {
	s := NewStore()
	fillStore(s, 3)
	want := []Span{s.Span(1), s.Span(2), s.Span(3)}
	for _, v := range []int{math.MaxInt32 + 1, math.MinInt32, math.MinInt32 - 1, math.MaxInt64, math.MinInt64} {
		sp := Span{Parent: SpanID(v), Kind: KindProcEvent, Task: v, Worker: v, Attempt: v, Polls: v, Start: 1}
		sp.ID = s.Instant(sp, 1)
		sp.End = 1
		want = append(want, sp)
	}
	s.SetWorker(4, 5)
	want[3].Worker = 5
	s.SetWorker(1, math.MaxInt32+1)
	want[0].Worker = math.MaxInt32 + 1
	s.SetWorker(5, math.MinInt64)
	want[4].Worker = math.MinInt64
	s.SetPolls(4, 7)
	want[3].Polls = 7
	s.SetPolls(2, math.MaxInt32+1)
	want[1].Polls = math.MaxInt32 + 1
	for i, w := range want {
		if got := s.Span(SpanID(i + 1)); got != w {
			t.Fatalf("span %d = %+v, want %+v", i+1, got, w)
		}
	}
	if !slices.Equal(s.Spans(), want) {
		t.Fatalf("Spans() = %+v, want %+v", s.Spans(), want)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if sp := got.Span(SpanID(i + 1)); sp != w {
			t.Fatalf("reloaded span %d = %+v, want %+v", i+1, sp, w)
		}
	}
}

// TestRecordHoldsNoPointers walks the span record type: nothing in it may be
// a pointer, string, slice, map, channel, function or interface, so the
// collector never scans a chunk, and a record takes at most 64 bytes.
func TestRecordHoldsNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s", path, ty.Kind())
		}
	}
	ty := reflect.TypeFor[record]()
	walk(ty.Name(), ty)
	if ty.Size() > 64 {
		t.Errorf("a record takes %d bytes, want at most 64", ty.Size())
	}
}
