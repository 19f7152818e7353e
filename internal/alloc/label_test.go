package alloc

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// Auto's memoised label must always equal a fresh computation from the
// current history and fields. These tests drive arbitrary sequences of the
// calls that touch that state and compare after every read.

var labelCats = []string{"a", "b", "c"}

// labelOp is one call against an Auto: kind selects the method, cat the
// category, and v the floats it consumes (peaks or a field value).
type labelOp struct {
	kind int
	cat  string
	v    [3]float64
}

const (
	opObserveDone = iota
	opObserveKilled
	opPreload
	opRetry
	opNext
	opCurrentLabel
	opSetPad
	opSetBoost
	opSetStds
	opSetMinSamples
	opSetMaxSamples
	numLabelOps
)

func (op labelOp) peak() monitor.Resources {
	return monitor.Resources{Cores: op.v[0], MemoryMB: op.v[1], DiskMB: op.v[2]}
}

func (op labelOp) apply(a *Auto) {
	switch op.kind {
	case opObserveDone, opObserveKilled:
		done := op.kind == opObserveDone
		a.Observe(op.cat, monitor.Report{Peak: op.peak(), Completed: done, Killed: !done})
	case opPreload:
		// The sign of the first value picks an empty or a two-peak preload.
		var peaks []monitor.Resources
		if !math.Signbit(op.v[0]) {
			peaks = []monitor.Resources{op.peak(), {Cores: op.v[2], MemoryMB: op.v[0], DiskMB: op.v[1]}}
		}
		a.Preload(op.cat, peaks)
	case opRetry:
		a.Retry(op.cat, 1)
	case opNext:
		a.Next(op.cat)
	case opCurrentLabel:
		a.CurrentLabel(op.cat)
	case opSetPad:
		a.Pad = op.v[0]
	case opSetBoost:
		a.BootstrapBoost = op.v[0]
	case opSetStds:
		a.SafetyStds = op.v[0]
	case opSetMinSamples:
		a.MinSamples = int(math.Float64bits(op.v[0])%5) - 1
	case opSetMaxSamples:
		a.MaxSamples = int(math.Float64bits(op.v[0]) % 8)
	}
}

// freshLabel computes the category's label without the cache or the
// sorted window, through the oracle below.
func freshLabel(a *Auto, cat string) (monitor.Resources, bool) {
	h := a.hist[cat]
	if a.bootstrapping(h) {
		return monitor.Resources{}, false
	}
	return oracleLabel(a, h.peaks), true
}

// oracleLabel is the reference label computation: it sorts every dimension
// afresh, binary-searches each candidate's overflow and accumulates the
// spread in a sim.Stats. Auto.computeLabel must match it bit for bit. Its
// sort uses peakOrder, so that values equal under == (-0 and +0, NaNs)
// land where the incrementally sorted window puts them, and every NaN
// dimension it returns is math.NaN() whatever payload its inputs carried.
func oracleLabel(a *Auto, peaks []monitor.Resources) monitor.Resources {
	scale := 1 + a.Pad + a.BootstrapBoost/float64(len(peaks))
	l := monitor.Resources{
		Cores:    math.Ceil(oracleDim(a, peaks, func(r monitor.Resources) float64 { return r.Cores }) - 1e-9),
		MemoryMB: oracleDim(a, peaks, func(r monitor.Resources) float64 { return r.MemoryMB }) * scale,
		DiskMB:   oracleDim(a, peaks, func(r monitor.Resources) float64 { return r.DiskMB }) * scale,
	}
	for _, v := range []*float64{&l.Cores, &l.MemoryMB, &l.DiskMB} {
		if math.IsNaN(*v) {
			*v = math.NaN()
		}
	}
	return l
}

func oracleDim(a *Auto, peaks []monitor.Resources, dim func(monitor.Resources) float64) float64 {
	vals := make([]float64, 0, len(peaks))
	for _, p := range peaks {
		vals = append(vals, dim(p))
	}
	slices.SortFunc(vals, peakOrder)
	n := len(vals)
	max := vals[n-1]
	best := max
	bestCost := max * float64(n) // allocating the max never overflows
	for i, c := range vals {
		if i > 0 && c == vals[i-1] {
			continue // duplicate candidate
		}
		// Peaks strictly above c overflow; equal peaks fit.
		overflow := n - sort.SearchFloat64s(vals, c+1e-12)
		// An overflowing task wastes its entire failed attempt (it held c
		// for the full run before the kill) and then pays a full-size
		// retry at max.
		cost := c*float64(n) + float64(overflow)*(c+max)
		if cost < bestCost {
			best = c
			bestCost = cost
		}
	}
	// Tail headroom: the observed maximum of a noisy distribution
	// underestimates its true upper bound, especially with few samples.
	// Inflate by the spread of the observations at or below the choice.
	if a.SafetyStds > 0 {
		var s sim.Stats
		for _, v := range vals {
			if v <= best+1e-12 {
				s.Add(v)
			}
		}
		best += a.SafetyStds * s.Std()
	}
	return best
}

// sameBits compares labels bit for bit, so NaN equals NaN and the signs of
// zeros matter.
func sameBits(x, y monitor.Resources) bool {
	return math.Float64bits(x.Cores) == math.Float64bits(y.Cores) &&
		math.Float64bits(x.MemoryMB) == math.Float64bits(y.MemoryMB) &&
		math.Float64bits(x.DiskMB) == math.Float64bits(y.DiskMB)
}

// runLabelOps applies ops to a and, after every read and at the end,
// compares the labels of every category with a fresh computation. Between
// reads, several writes can pile up on a cached label.
func runLabelOps(t *testing.T, a *Auto, ops []labelOp) {
	t.Helper()
	for step, op := range ops {
		op.apply(a)
		if op.kind == opNext || op.kind == opCurrentLabel {
			checkLabels(t, a, step)
		}
	}
	checkLabels(t, a, len(ops))
}

// checkLabels compares CurrentLabel and Next with a fresh computation for
// every category, and each sorted window with a fresh sort of the peaks.
func checkLabels(t *testing.T, a *Auto, step int) {
	t.Helper()
	for _, cat := range labelCats {
		if h := a.hist[cat]; h != nil {
			for d := range h.sorted {
				want := make([]float64, len(h.peaks))
				for i, p := range h.peaks {
					want[i] = dims(p)[d]
				}
				slices.SortFunc(want, peakOrder)
				if !slices.EqualFunc(h.sorted[d], want, func(x, y float64) bool {
					return math.Float64bits(x) == math.Float64bits(y)
				}) {
					t.Fatalf("step %d: %q sorted window %d = %v, want %v", step, cat, d, h.sorted[d], want)
				}
			}
		}
		want, ok := freshLabel(a, cat)
		got, gotOK := a.CurrentLabel(cat)
		if gotOK != ok || !sameBits(got, want) {
			t.Fatalf("step %d: CurrentLabel(%q) = %v, %v; fresh %v, %v", step, cat, got, gotOK, want, ok)
		}
		d := a.Next(cat)
		if d.WholeNode == ok || (ok && !sameBits(d.Request, want)) {
			t.Fatalf("step %d: Next(%q) = %+v; fresh %v, %v", step, cat, d, want, ok)
		}
	}
}

func TestAutoEmptyHistoryBootstraps(t *testing.T) {
	for _, min := range []int{0, -1} {
		a := NewAuto()
		a.MinSamples = min
		a.Preload("t", nil)
		if d := a.Next("t"); !d.WholeNode {
			t.Fatalf("MinSamples %d: Next on an empty history = %+v, want whole node", min, d)
		}
		if l, ok := a.CurrentLabel("t"); ok {
			t.Fatalf("MinSamples %d: CurrentLabel on an empty history = %v, want bootstrapping", min, l)
		}
	}
}

func TestAutoLabelCacheMatchesRecompute(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), -5, math.NaN(), math.Inf(1), math.Inf(-1)}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		val := func() float64 {
			if rng.Intn(20) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.Float64() * 1000
		}
		ops := make([]labelOp, 400)
		for i := range ops {
			op := labelOp{kind: rng.Intn(numLabelOps), cat: labelCats[rng.Intn(len(labelCats))]}
			for j := range op.v {
				op.v[j] = val()
			}
			if op.kind == opSetPad || op.kind == opSetBoost || op.kind == opSetStds {
				op.v[0] = rng.Float64() * 3 // keep most labels finite
			}
			ops[i] = op
		}
		runLabelOps(t, NewAuto(), ops)
	}
}

func TestAutoCachedNextAllocatesNothing(t *testing.T) {
	a := NewAuto()
	for i := 0; i < 50; i++ {
		a.Observe("t", rep(float64(80+i%7), true))
	}
	a.Next("t")
	if n := testing.AllocsPerRun(100, func() { a.Next("t") }); n != 0 {
		t.Fatalf("cache-hit Next allocates %v objects, want 0", n)
	}
}

// decodeLabelOps reads an operation sequence: one byte picks the kind and
// category, then three little-endian float64s (zero-padded at the end of
// the input) supply its values.
func decodeLabelOps(data []byte) []labelOp {
	var ops []labelOp
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		op := labelOp{kind: int(b) % numLabelOps, cat: labelCats[int(b)/numLabelOps%len(labelCats)]}
		for i := range op.v {
			var buf [8]byte
			data = data[copy(buf[:], data):]
			op.v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		}
		ops = append(ops, op)
	}
	return ops
}

func encodeLabelOps(ops ...labelOp) []byte {
	var out []byte
	for _, op := range ops {
		cat := 0
		for i, c := range labelCats {
			if c == op.cat {
				cat = i
			}
		}
		out = append(out, byte(cat*numLabelOps+op.kind))
		for _, v := range op.v {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

func FuzzAutoLabel(f *testing.F) {
	obs := func(cat string, mem float64) labelOp {
		return labelOp{kind: opObserveDone, cat: cat, v: [3]float64{1, mem, 10}}
	}
	f.Add([]byte{})
	f.Add(encodeLabelOps(obs("a", 100), obs("a", 120), labelOp{kind: opNext, cat: "a"},
		labelOp{kind: opSetPad, cat: "a", v: [3]float64{0.5}}, obs("b", 5000)))
	f.Add(encodeLabelOps(labelOp{kind: opSetMinSamples, cat: "a"}, labelOp{kind: opPreload, cat: "a", v: [3]float64{-1}},
		labelOp{kind: opNext, cat: "a"}, labelOp{kind: opCurrentLabel, cat: "a"}))
	f.Add(encodeLabelOps(obs("c", math.NaN()), obs("c", math.Inf(1)), obs("c", -3),
		labelOp{kind: opObserveKilled, cat: "c", v: [3]float64{1, 1, 1}}, labelOp{kind: opRetry, cat: "c"},
		labelOp{kind: opSetStds, cat: "c", v: [3]float64{math.NaN()}}, labelOp{kind: opSetBoost, cat: "c", v: [3]float64{math.Inf(-1)}}))
	// A two-peak window sliding over signed zeros and NaNs.
	negZero, nan2 := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000002)
	f.Add(encodeLabelOps(labelOp{kind: opSetMaxSamples, cat: "b", v: [3]float64{math.Float64frombits(2)}},
		labelOp{kind: opObserveDone, cat: "b", v: [3]float64{negZero, 0, math.NaN()}},
		labelOp{kind: opObserveDone, cat: "b", v: [3]float64{0, negZero, nan2}}, labelOp{kind: opNext, cat: "b"},
		labelOp{kind: opObserveDone, cat: "b", v: [3]float64{negZero, negZero, 1}}, labelOp{kind: opCurrentLabel, cat: "b"},
		labelOp{kind: opPreload, cat: "b", v: [3]float64{0, nan2, negZero}}))
	// A cores peak that is a NaN with a payload. Which NaN the label's
	// arithmetic hands on differs between builds: with the fuzzer's
	// instrumentation one build returned the default NaN where the oracle
	// kept the payload, so both return math.NaN().
	f.Add(encodeLabelOps(labelOp{kind: opObserveDone, cat: "c", v: [3]float64{math.Float64frombits(0x7ff8303030303030), 1, 10}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		runLabelOps(t, NewAuto(), decodeLabelOps(data))
	})
}
