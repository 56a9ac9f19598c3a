package main

import "testing"

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
	}{
		{0, "none"}, {1, "max"}, {19, "max"}, {20, "p50"}, {39, "p50"}, {40, "p75"},
		{99, "p75"}, {100, "p90"}, {199, "p90"}, {200, "p95"}, {999, "p95"}, {1000, "p99"}, {100000, "p99"},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted input
		}
		label, v := tail(xs)
		if label != tc.label {
			t.Errorf("n=%d: tail reports %s, want %s", tc.n, label, tc.label)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		switch label {
		case "none":
		case "max":
			if v != float64(tc.n) {
				t.Errorf("n=%d: max = %v", tc.n, v)
			}
		default:
			if beyond < 10 {
				t.Errorf("n=%d: %s = %v leaves %d samples beyond it, want ≥ 10", tc.n, label, v, beyond)
			}
		}
	}
}
