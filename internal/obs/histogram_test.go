package obs

import (
	"testing"
	"time"
)

// latencyBounds are the daemon's request-latency bounds (the last is 30s),
// which the quantile edge cases below are written against.
var latencyBounds = []float64{.000025, .0001, .0005, .001, .005, .025, .1, .5, 1, 2.5, 5, 10, 30}

// Quantile estimates must never exceed the largest observation — in
// particular at the histogram edges, where naive interpolation against a
// bucket's upper bound (or the +Inf bucket) invents latencies nobody saw.
func TestHistogramQuantileClampsToMax(t *testing.T) {
	h := NewHistogram(latencyBounds)
	// 100 observations of 31s: every one lands in the +Inf bucket (last
	// bound is 30s). Both p50 and p99 must report 31s, not a bucket bound.
	for i := 0; i < 100; i++ {
		h.Observe(31 * time.Second)
	}
	for _, q := range []float64{0.5, 0.99} {
		if got := h.Quantile(q); got != 31.0 {
			t.Errorf("q%.2f = %gs with all observations in +Inf, want 31", q, got)
		}
	}
}

func TestHistogramQuantileInterpolationClamped(t *testing.T) {
	h := NewHistogram(latencyBounds)
	// 99 fast observations and one at 600ms: the p99 rank lands in the
	// (0.5, 1] bucket, where plain interpolation would report up to ~1s.
	// The clamp caps it at the 600ms actually observed.
	for i := 0; i < 99; i++ {
		h.Observe(50 * time.Microsecond)
	}
	h.Observe(600 * time.Millisecond)
	p99 := h.Quantile(0.99)
	if p99 > 0.6 {
		t.Errorf("p99 = %gs exceeds max observation 0.6s", p99)
	}
	if p99 <= 0 {
		t.Errorf("p99 = %gs, want positive", p99)
	}
	// p50 stays inside the fast bucket, untouched by the clamp.
	if p50 := h.Quantile(0.5); p50 > 0.0001 {
		t.Errorf("p50 = %gs, want within the 100µs bucket", p50)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(latencyBounds)
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %g, want 0", got)
	}
}
