package sim

import "testing"

func TestStatsBasics(t *testing.T) {
	var s Stats
	for _, v := range []float64{4, 2, 8, 6} {
		s.Add(v)
	}
	if s.N() != 4 || s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("N/Min/Max = %d/%v/%v", s.N(), s.Min(), s.Max())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if s.Sum() != 20 {
		t.Fatalf("Sum = %v, want 20", s.Sum())
	}
	if got := s.Percentile(50); got != 4 {
		t.Fatalf("P50 = %v, want 4", got)
	}
	if got := s.Percentile(100); got != 8 {
		t.Fatalf("P100 = %v, want 8", got)
	}
	if got := s.Percentile(0); got != 2 {
		t.Fatalf("P0 = %v, want 2", got)
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Std() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty stats should report zeros")
	}
}

func TestStatsStd(t *testing.T) {
	var s Stats
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	// Sample std of this classic set is ~2.138.
	if got := s.Std(); got < 2.1 || got > 2.2 {
		t.Fatalf("Std = %v, want ~2.14", got)
	}
}
