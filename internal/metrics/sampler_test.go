package metrics

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"lfm/internal/sim"
)

func TestSamplerCollectsAtResolution(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	depth := reg.Gauge("queue_depth")
	placed := reg.Counter("placements_total")

	// A model loop that runs for 10s, mutating the instruments.
	n := 0
	var work func()
	work = func() {
		n++
		depth.Set(float64(10 - n))
		placed.Inc()
		if n < 10 {
			eng.After(1, work)
		}
	}
	s := NewSampler(eng, reg, sim.Second)
	eng.At(0, func() {
		s.Start()
		eng.After(0.5, work)
	})
	end := eng.Run()

	ts := s.Find("queue_depth")
	if ts == nil {
		t.Fatal("queue_depth never sampled")
	}
	// Samples at 0,1,...,9 and at the drain time 9.5.
	if s.Samples < 10 {
		t.Fatalf("samples = %d", s.Samples)
	}
	if end > 11.5+1e-9 {
		t.Fatalf("sampler kept the engine alive until %v", end)
	}
	// Points are time-ordered and spaced at the resolution.
	for i := 1; i < len(ts.Points); i++ {
		if ts.Points[i].At <= ts.Points[i-1].At {
			t.Fatal("points not strictly time-ordered")
		}
	}
	last := ts.Points[len(ts.Points)-1]
	if last.V != 0 {
		t.Fatalf("final queue depth sample = %v, want 0", last.V)
	}
	ct := s.Find("placements_total")
	if ct == nil || ct.Kind != "counter" {
		t.Fatalf("counter series = %+v", ct)
	}
	if got := ct.Points[len(ct.Points)-1].V; got != 10 {
		t.Fatalf("final counter sample = %v", got)
	}
}

func TestSamplerStopAndRestart(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	reg.Gauge("g").Set(1)
	s := NewSampler(eng, reg, sim.Second)
	// Keep the engine busy independent of the sampler.
	for i := 0; i <= 10; i++ {
		eng.At(sim.Time(i), func() {})
	}
	eng.At(0, s.Start)
	eng.At(3.5, s.Stop)
	eng.At(7, s.Start)
	eng.Run()
	ts := s.Find("g")
	// Samples at 0,1,2,3 then 7,8,9 and 10 when the run drains.
	var gap bool
	for i := 1; i < len(ts.Points); i++ {
		if ts.Points[i].At-ts.Points[i-1].At > 2 {
			gap = true
		}
	}
	if !gap {
		t.Fatalf("expected a sampling gap across Stop/Start, points: %v", ts.Points)
	}
}

func TestSamplerSkipsUnregistered(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	reg.GaugeFunc("w", func() float64 { return 1 }, L("worker", "0"))
	s := NewSampler(eng, reg, sim.Second)
	eng.At(0, s.Start)
	eng.At(2.5, func() { reg.Unregister("w", L("worker", "0")) })
	eng.At(5, func() {})
	eng.Run()
	ts := s.Find("w", L("worker", "0"))
	if ts == nil {
		t.Fatal("series missing")
	}
	for _, p := range ts.Points {
		if p.At > 2.5 {
			t.Fatalf("sampled unregistered series at %v", p.At)
		}
	}
}

// TestSamplerResumesReregisteredSeries checks that a series unregistered
// and registered again under the same ID appends to its old history, and
// that series first seen after it keep their first-seen order.
func TestSamplerResumesReregisteredSeries(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	reg.GaugeFunc("w", func() float64 { return 1 }, L("worker", "0"))
	s := NewSampler(eng, reg, sim.Second)
	eng.At(0, s.Start)
	eng.At(1.5, func() { reg.Unregister("w", L("worker", "0")) })
	eng.At(3.5, func() {
		reg.GaugeFunc("w", func() float64 { return 2 }, L("worker", "1"))
		reg.GaugeFunc("w", func() float64 { return 3 }, L("worker", "0"))
	})
	eng.At(5, func() {})
	eng.Run()
	series := s.Series()
	if len(series) != 2 || series[0].Label("worker") != "0" || series[1].Label("worker") != "1" {
		t.Fatalf("series order = %v", series)
	}
	got := s.Find("w", L("worker", "0")).Points
	if want := []Point{{0, 1}, {1, 1}, {4, 3}, {5, 3}}; !slices.Equal(got, want) {
		t.Fatalf("points = %v, want %v", got, want)
	}
}

func TestTimelineJSON(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	g := reg.Gauge("pool_size", L("site", "ndcrc"))
	s := NewSampler(eng, reg, sim.Second)
	eng.At(0, func() { g.Set(1); s.Start() })
	eng.At(1.5, func() { g.Set(3) })
	eng.At(3, func() {})
	eng.Run()

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Resolution float64 `json:"resolution"`
		Samples    int     `json:"samples"`
		Series     []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Kind   string            `json:"kind"`
			Points [][2]float64      `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Resolution != 1 || doc.Samples < 4 {
		t.Fatalf("doc header = %+v", doc)
	}
	if len(doc.Series) != 1 {
		t.Fatalf("series = %d", len(doc.Series))
	}
	se := doc.Series[0]
	if se.Name != "pool_size" || se.Kind != "gauge" || se.Labels["site"] != "ndcrc" {
		t.Fatalf("series = %+v", se)
	}
	// The t=2 sample must see the value set at 1.5.
	var at2 float64 = -1
	for _, p := range se.Points {
		if p[0] == 2 {
			at2 = p[1]
		}
	}
	if at2 != 3 {
		t.Fatalf("sample at t=2 = %v, want 3", at2)
	}
}
