package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 102}
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same runs", base, base, true, 0.1, "within-bound"},
		{"every run faster", base, []float64{50, 51, 52}, true, 0.1, "better"},
		{"slower beyond the bound", base, []float64{120, 121, 122}, true, 0.1, "worse"},
		{"slower within the bound", base, []float64{105, 106, 107}, true, 0.1, "within-bound"},
		{"spread wider than the bound", []float64{80, 100, 130}, []float64{90, 110, 125}, true, 0.1, "unresolved"},
		{"higher is better", []float64{10, 11, 12}, []float64{20, 21, 22}, false, 0.1, "better"},
		{"higher is better, dropped", []float64{20, 21, 22}, []float64{10, 11, 12}, false, 0.1, "worse"},
		{"no bound", base, []float64{120, 121, 122}, true, -1, "n/a"},
	} {
		c := compareSamples(tc.a, tc.b, tc.lowerBetter, tc.bound)
		if c.verdict != tc.want {
			t.Errorf("%s: verdict %s (change %+.3f, wins %.2f, spreads %.3f/%.3f), want %s",
				tc.name, c.verdict, c.change, c.wins, c.a.spread, c.b.spread, tc.want)
		}
	}
}

func TestCompareWinsAndMedians(t *testing.T) {
	c := compareSamples([]float64{1, 2, 3, 4}, []float64{2, 3}, true, 0.5)
	// B beats A in (3,2), (4,2), (4,3) of the 8 pairs.
	if c.wins != 3.0/8 || c.a.med != 2.5 || c.b.med != 2.5 || c.a.n != 4 {
		t.Errorf("wins %v, medians %v/%v, n %d", c.wins, c.a.med, c.b.med, c.a.n)
	}
}
