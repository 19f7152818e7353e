package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestFairShareSingleFlow(t *testing.T) {
	e := NewEngine(1)
	fs := NewFairShare(e, 100)
	var done Time
	e.At(0, func() {
		fs.Transfer(500, func() { done = e.Now() })
	})
	e.Run()
	if done != 5 {
		t.Fatalf("single flow finished at %v, want 5", done)
	}
}

func TestFairShareTwoEqualFlows(t *testing.T) {
	e := NewEngine(1)
	fs := NewFairShare(e, 100)
	var done []Time
	e.At(0, func() {
		fs.Transfer(500, func() { done = append(done, e.Now()) })
		fs.Transfer(500, func() { done = append(done, e.Now()) })
	})
	e.Run()
	// Each gets 50 units/s: both finish at 10.
	if len(done) != 2 || done[0] != 10 || done[1] != 10 {
		t.Fatalf("done = %v, want [10 10]", done)
	}
}

func TestFairShareLateArrivalSlowsFirst(t *testing.T) {
	e := NewEngine(1)
	fs := NewFairShare(e, 100)
	var first, second Time
	e.At(0, func() { fs.Transfer(500, func() { first = e.Now() }) })
	// Second flow arrives at t=2.5 when the first has 250 left.
	e.At(2.5, func() { fs.Transfer(500, func() { second = e.Now() }) })
	e.Run()
	// From 2.5 both run at 50/s. First has 250 left -> finishes at 7.5.
	if math.Abs(float64(first-7.5)) > 1e-9 {
		t.Fatalf("first = %v, want 7.5", first)
	}
	// Second then has 250 left and gets 100/s -> finishes at 10.
	if math.Abs(float64(second-10)) > 1e-9 {
		t.Fatalf("second = %v, want 10", second)
	}
}

func TestFairSharePerFlowCap(t *testing.T) {
	e := NewEngine(1)
	fs := NewFairShare(e, 1000)
	fs.PerFlowCap = 100 // a single client cannot exceed its NIC
	var done Time
	e.At(0, func() { fs.Transfer(500, func() { done = e.Now() }) })
	e.Run()
	if done != 5 {
		t.Fatalf("capped flow finished at %v, want 5", done)
	}
}

func TestFairShareZeroSizeTransfer(t *testing.T) {
	e := NewEngine(1)
	fs := NewFairShare(e, 10)
	fired := false
	e.At(1, func() { fs.Transfer(0, func() { fired = true }) })
	e.Run()
	if !fired {
		t.Fatal("zero-size transfer never completed")
	}
	if e.Now() != 1 {
		t.Fatalf("zero-size transfer finished at %v, want 1", e.Now())
	}
}

func TestFairShareChainedTransfers(t *testing.T) {
	// Completion callbacks may start new flows; the resource must handle it.
	e := NewEngine(1)
	fs := NewFairShare(e, 10)
	var hops int
	var next func()
	next = func() {
		hops++
		if hops < 3 {
			fs.Transfer(10, next)
		}
	}
	e.At(0, func() { fs.Transfer(10, next) })
	e.Run()
	if hops != 3 {
		t.Fatalf("hops = %d, want 3", hops)
	}
	if e.Now() != 3 {
		t.Fatalf("chain finished at %v, want 3", e.Now())
	}
}

func TestFairShareEstimateLatency(t *testing.T) {
	e := NewEngine(1)
	fs := NewFairShare(e, 100)
	if got := fs.EstimateLatency(200); got != 2 {
		t.Fatalf("idle estimate = %v, want 2", got)
	}
	e.At(0, func() {
		fs.Transfer(1e9, nil)
		if got := fs.EstimateLatency(100); got != 2 {
			t.Errorf("estimate with one active flow = %v, want 2", got)
		}
	})
	e.RunUntil(1)
}

// Property: total moved units equals the sum of all transfer sizes, and the
// makespan is at least total/capacity (work conservation under sharing).
func TestFairShareConservationProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		e := NewEngine(5)
		fs := NewFairShare(e, 50)
		var total float64
		var completed int
		e.At(0, func() {
			for _, sz := range sizes {
				s := float64(sz)
				total += s
				fs.Transfer(s, func() { completed++ })
			}
		})
		end := e.Run()
		if completed != len(sizes) {
			return false
		}
		if math.Abs(fs.MovedUnits-total) > 1e-6*(total+1) {
			return false
		}
		return float64(end) >= total/50-1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refShare is the reference FairShare is checked against: the same
// processor-sharing model in virtual time, with the active flows kept in a
// start-ordered slice that every reschedule and completion scans in full.
type refShare struct {
	eng        *Engine
	capacity   float64
	perFlowCap float64
	flows      []refFlow // start order
	vnow       float64
	last       Time
	next       Event
	completed  uint64
	moved      float64
}

type refFlow struct {
	vEnd float64
	done func()
}

func (r *refShare) rate() float64 {
	rt := r.capacity / float64(len(r.flows))
	if r.perFlowCap > 0 && rt > r.perFlowCap {
		rt = r.perFlowCap
	}
	return rt
}

func (r *refShare) advance() {
	now := r.eng.Now()
	dt := float64(now - r.last)
	r.last = now
	if dt <= 0 || len(r.flows) == 0 {
		return
	}
	progress := r.rate() * dt
	r.vnow += progress
	r.moved += progress * float64(len(r.flows))
}

// earliest is the index of the flow with the smallest virtual end, the
// first started among equals.
func (r *refShare) earliest() int {
	best := 0
	for i, fl := range r.flows {
		if fl.vEnd < r.flows[best].vEnd {
			best = i
		}
	}
	return best
}

func (r *refShare) reschedule() {
	r.eng.Cancel(r.next)
	r.next = Event{}
	if len(r.flows) == 0 {
		return
	}
	eta := Time((r.flows[r.earliest()].vEnd - r.vnow) / r.rate())
	if eta < 0 {
		eta = 0
	}
	r.next = r.eng.After(eta, r.complete)
}

func (r *refShare) complete() {
	r.next = Event{}
	r.advance()
	eps := 1e-9 + r.vnow*1e-12
	var finished, active []refFlow
	for _, fl := range r.flows {
		if fl.vEnd <= r.vnow+eps {
			finished = append(finished, fl)
		} else {
			active = append(active, fl)
		}
	}
	if len(finished) == 0 && len(active) > 0 {
		i := r.earliest()
		finished = append(finished, active[i])
		active = append(active[:i:i], active[i+1:]...)
	}
	r.flows = active
	r.completed += uint64(len(finished))
	if len(r.flows) == 0 {
		r.vnow = 0
	}
	for _, fl := range finished {
		if fl.done != nil {
			fl.done()
		}
	}
	r.reschedule()
}

func (r *refShare) Transfer(units float64, done func()) {
	r.advance()
	if len(r.flows) == 0 {
		r.vnow = 0
	}
	r.flows = append(r.flows, refFlow{vEnd: r.vnow + units, done: done})
	r.reschedule()
}

// shareScript is one randomly drawn differential case: flows started at
// chosen instants, some of whose completion callbacks start further flows.
type shareScript struct {
	capacity, perFlowCap float64
	starts               []scriptFlow
}

type scriptFlow struct {
	at    Time
	size  float64
	chain []float64 // sizes the completion callback starts, one hop each
}

// completion is one finished flow: its id (the order Transfer was called
// in) and the instant its callback ran.
type completion struct {
	id int
	at Time
}

// transferer is what a script drives: FairShare or the reference.
type transferer interface{ Transfer(float64, func()) }

// runShare plays the script against a resource built on a fresh engine and
// returns the completions in callback order.
func runShare(sc shareScript, build func(*Engine) transferer) []completion {
	e := NewEngine(1)
	res := build(e)
	var log []completion
	ids := 0
	var start func(size float64, chain []float64)
	start = func(size float64, chain []float64) {
		id := ids
		ids++
		res.Transfer(size, func() {
			log = append(log, completion{id, e.Now()})
			if len(chain) > 0 {
				start(chain[0], chain[1:])
			}
		})
	}
	for _, f := range sc.starts {
		e.At(f.at, func() { start(f.size, f.chain) })
	}
	e.Run()
	return log
}

// TestFairShareMatchesReference drives the value-heap FairShare and the
// linear-scan reference with the same random scripts. Sizes and start
// instants come from small sets so that flows tie at one virtual instant;
// zero sizes, a per-flow cap and completion callbacks that start new flows
// are all drawn. Completion instants and order must match exactly, and so
// must the completed count and the units moved.
func TestFairShareMatchesReference(t *testing.T) {
	rng := NewRNG(11)
	sizes := []float64{0, 10, 25, 25, 50, 100, 1000, 1e6}
	instants := []Time{0, 0, 0.5, 1, 2.5, 7}
	var ties, zeros, capped, chained int
	for c := 0; c < 400; c++ {
		sc := shareScript{capacity: []float64{100, 30, 7}[rng.Intn(3)]}
		if rng.Intn(3) == 0 {
			sc.perFlowCap = []float64{5, 40}[rng.Intn(2)]
			capped++
		}
		for range 1 + rng.Intn(40) {
			f := scriptFlow{at: instants[rng.Intn(len(instants))], size: sizes[rng.Intn(len(sizes))]}
			for rng.Intn(4) == 0 {
				f.chain = append(f.chain, sizes[rng.Intn(len(sizes))])
			}
			sc.starts = append(sc.starts, f)
		}
		var fs *FairShare
		var ref *refShare
		got := runShare(sc, func(e *Engine) transferer {
			fs = NewFairShare(e, sc.capacity)
			fs.PerFlowCap = sc.perFlowCap
			return fs
		})
		want := runShare(sc, func(e *Engine) transferer {
			ref = &refShare{eng: e, capacity: sc.capacity, perFlowCap: sc.perFlowCap}
			return ref
		})
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (%+v): completions\n got %v\nwant %v", c, sc, got, want)
		}
		if fs.Completed != ref.completed || fs.MovedUnits != ref.moved {
			t.Fatalf("case %d: completed %d moved %v, reference %d moved %v",
				c, fs.Completed, fs.MovedUnits, ref.completed, ref.moved)
		}
		for i := 1; i < len(got); i++ {
			if got[i].at == got[i-1].at {
				ties++
			}
		}
		for _, f := range sc.starts {
			if f.size == 0 {
				zeros++
			}
			if len(f.chain) > 0 {
				chained++
			}
		}
	}
	if ties == 0 || zeros == 0 || capped == 0 || chained == 0 {
		t.Fatalf("cases left a path unexercised: %d ties, %d zero sizes, %d capped, %d chained",
			ties, zeros, capped, chained)
	}
}
