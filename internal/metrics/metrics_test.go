package metrics

import (
	"math"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tasks_total", L("category", "hep"))
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("value = %v", c.Value())
	}
	// Get-or-create returns the same instrument.
	if again := r.Counter("tasks_total", L("category", "hep")); again != c {
		t.Fatal("same series returned a new counter")
	}
	// Different labels are a different series.
	if other := r.Counter("tasks_total", L("category", "vep")); other == c {
		t.Fatal("distinct labels shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("value = %v", g.Value())
	}
	n := 7.0
	r.GaugeFunc("derived", func() float64 { return n })
	if got := r.Gauge("derived").Value(); got != 7 {
		t.Fatalf("gauge func = %v", got)
	}
	n = 9
	if got := r.Gauge("derived").Value(); got != 9 {
		t.Fatalf("gauge func not re-evaluated: %v", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		labels []Label
	}{
		{"thing_total", nil},
		{"labelled_total", []Label{L("category", "hep")}},
	} {
		r := NewRegistry()
		r.Counter(c.name, c.labels...)
		// The same series under another kind, and a new series of the
		// name under another kind, both panic.
		for _, labels := range [][]Label{c.labels, {L("category", "other")}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s%v: mixed-kind name did not panic", c.name, labels)
					}
				}()
				r.Gauge(c.name, labels...)
			}()
		}
	}
}

func TestLookupHitAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", L("category", "hep"), L("kind", "memory"))
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("hits_total", L("kind", "memory"), L("category", "hep")).Inc()
	})
	if allocs != 0 {
		t.Fatalf("lookup of an existing series allocated %v times", allocs)
	}
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name did not panic")
		}
	}()
	r.Counter("bad name")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-16.7) > 1e-9 {
		t.Fatalf("sum = %v", h.Sum())
	}
	if h.Min() != 0.5 || h.Max() != 10 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	cum := h.Cumulative()
	want := []uint64{1, 3, 4, 5} // le=1, le=2, le=4, +Inf
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
	// Values equal to a bound land in that bucket (le semantics).
	h2 := r.Histogram("edges_seconds", []float64{1, 2})
	h2.Observe(1)
	h2.Observe(2)
	if c := h2.Cumulative(); c[0] != 1 || c[1] != 2 {
		t.Fatalf("edge buckets = %v", c)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", LinearBuckets(0, 1, 10))
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%10) + 0.5)
	}
	med := h.Quantile(0.5)
	if med < 4 || med > 6 {
		t.Fatalf("median = %v, want ~5", med)
	}
	if got := h.Quantile(0); got != h.Min() {
		t.Fatalf("q0 = %v", got)
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Fatalf("q1 = %v", got)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0, 10, 3)
	if len(lin) != 3 || lin[0] != 10 || lin[2] != 30 {
		t.Fatalf("linear = %v", lin)
	}
	exp := ExpBuckets(1, 2, 4)
	if len(exp) != 4 || exp[0] != 1 || exp[3] != 8 {
		t.Fatalf("exp = %v", exp)
	}
}

func TestUnregister(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("worker_cores", func() float64 { return 4 }, L("worker", "0"))
	r.GaugeFunc("worker_cores", func() float64 { return 8 }, L("worker", "1"))
	r.Unregister("worker_cores", L("worker", "0"))
	names := r.Names()
	if len(names) != 1 || names[0] != "worker_cores" {
		t.Fatalf("names = %v", names)
	}
	live := 0
	for _, ins := range r.order {
		if !ins.removed {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("live series = %d, want 1", live)
	}
	// Unregistering an unknown series is harmless.
	r.Unregister("worker_cores", L("worker", "99"))
}
