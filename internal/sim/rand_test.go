package sim

import "testing"

func TestRNGDeterminismAndFork(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	fa := a.Fork()
	fb := b.Fork()
	for i := 0; i < 10; i++ {
		if fa.Float64() != fb.Float64() {
			t.Fatal("forked RNGs diverged")
		}
	}
}

func TestRNGBounds(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 1000; i++ {
		if v := g.Uniform(5, 10); v < 5 || v >= 10 {
			t.Fatalf("Uniform out of range: %v", v)
		}
		if v := g.TruncNormal(5, 10, 0, 8); v < 0 || v > 8 {
			t.Fatalf("TruncNormal out of range: %v", v)
		}
		if v := g.Pareto(1.5, 2, 64); v < 2-1e-9 || v > 64+1e-9 {
			t.Fatalf("Pareto out of range: %v", v)
		}
		if v := g.Exponential(3); v < 0 {
			t.Fatalf("Exponential negative: %v", v)
		}
	}
}

func TestRNGParetoIsHeavyTailed(t *testing.T) {
	g := NewRNG(13)
	var s Stats
	for i := 0; i < 5000; i++ {
		s.Add(g.Pareto(1.2, 1, 100))
	}
	// A heavy right tail pulls the mean well above the median.
	if s.Mean() <= s.Percentile(50) {
		t.Fatalf("Pareto mean %v not above median %v", s.Mean(), s.Percentile(50))
	}
}
