package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket cumulative duration histogram, lock-free on
// the observe path. Its upper bounds (seconds, ascending) are fixed at
// construction; one implicit +Inf bucket catches everything beyond them. It
// also tracks the largest observation, which caps quantile estimates at the
// open-ended edge.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1: the last is +Inf
	sum    atomic.Int64   // nanoseconds
	total  atomic.Int64
	maxNS  atomic.Int64 // largest single observation, nanoseconds
}

// NewHistogram returns an empty histogram over the given upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(h.bounds, d.Seconds())].Add(1)
	h.sum.Add(int64(d))
	h.total.Add(1)
	for {
		cur := h.maxNS.Load()
		if int64(d) <= cur || h.maxNS.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count is the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum is the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-th quantile (0 < q < 1) in seconds by linear
// interpolation inside the buckets. The estimate is clamped to the maximum
// observation, so a rank landing in the +Inf bucket (or interpolating past
// the data) reports the largest value actually seen rather than a bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	max := time.Duration(h.maxNS.Load()).Seconds()
	rank := q * float64(total)
	var cum int64
	lower := 0.0
	for i, ub := range h.bounds {
		c := h.counts[i].Load()
		if c > 0 && float64(cum)+float64(c) >= rank {
			return min(lower+(rank-float64(cum))/float64(c)*(ub-lower), max)
		}
		cum += c
		lower = ub
	}
	return max
}

// WritePrometheus writes this histogram as one labelled series of a
// Prometheus histogram family: the cumulative name_bucket lines, then
// name_sum and name_count. labels is the series' label list without braces,
// e.g. `stage="corpus.generate"`. The family's HELP/TYPE header is the
// caller's.
func (h *Histogram) WritePrometheus(w io.Writer, name, labels string) (int64, error) {
	var n int64
	var cum int64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		written, err := fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels, fmt.Sprintf("%g", ub), cum)
		n += int64(written)
		if err != nil {
			return n, err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	written, err := fmt.Fprintf(w, "%[1]s_bucket{%[2]s,le=\"+Inf\"} %[3]d\n%[1]s_sum{%[2]s} %[4]g\n%[1]s_count{%[2]s} %[5]d\n",
		name, labels, cum, h.Sum().Seconds(), h.Count())
	return n + int64(written), err
}
