package main

import "sort"

// summary is a metric's distribution over the rounds of a set.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of vs. The quartiles use the
// exclusive method, as Python's statistics.quantiles(vs, n=4) computes
// them, so the spreads printed here match a recomputation from the values.
func summarize(vs []float64) summary {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	quartile := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{Median: med, Q1: quartile(1), Q3: quartile(3), N: n}
}
