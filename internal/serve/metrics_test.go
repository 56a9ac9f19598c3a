package serve

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
)

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.requests.Add(7)
	m.cacheHits.Add(5)
	m.cacheMisses.Add(2)
	m.ObserveLatency("fig4", 40*time.Microsecond)
	m.ObserveLatency("fig4", 3*time.Second)
	m.ObserveLatency("export.csv", time.Millisecond)

	var b strings.Builder
	if _, err := m.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"schemaevod_requests_total 7",
		"schemaevod_cache_hits_total 5",
		"schemaevod_cache_misses_total 2",
		"# TYPE schemaevod_requests_total counter",
		"# TYPE schemaevod_inflight_requests gauge",
		"# TYPE schemaevod_experiment_latency_seconds histogram",
		`schemaevod_experiment_latency_seconds_count{experiment="fig4"} 2`,
		`schemaevod_experiment_latency_seconds_bucket{experiment="fig4",le="+Inf"} 2`,
		`schemaevod_experiment_latency_seconds_count{experiment="export.csv"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestMetricsStageFamilies: the exposition merges the obs stage registry —
// per-stage pipeline histograms appear alongside the daemon counters, with
// every line in parseable Prometheus text format (a private registry keeps
// the test isolated from other packages' observations).
func TestMetricsStageFamilies(t *testing.T) {
	reg := obs.NewStageRegistry()
	m := newMetricsWithStages(reg)
	reg.Observe("corpus.generate", 3*time.Millisecond)
	reg.Observe("corpus.generate", 40*time.Millisecond)
	reg.Observe("history.analyze", 700*time.Microsecond)

	var b strings.Builder
	if _, err := m.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE schemaevo_stage_duration_seconds histogram",
		"# TYPE schemaevo_stage_runs_total counter",
		`schemaevo_stage_duration_seconds_count{stage="corpus.generate"} 2`,
		`schemaevo_stage_duration_seconds_count{stage="history.analyze"} 1`,
		`schemaevo_stage_duration_seconds_bucket{stage="corpus.generate",le="+Inf"} 2`,
		`schemaevo_stage_runs_total{stage="corpus.generate"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// Each exposition line must be "# ..." or "name{labels} value" — a
	// scraper-level sanity parse of the merged output.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// An empty stage registry must add nothing — the seed exposition stays
// byte-identical when no pipeline has run.
func TestMetricsStageFamiliesEmpty(t *testing.T) {
	m := newMetricsWithStages(obs.NewStageRegistry())
	var b strings.Builder
	m.WriteTo(&b)
	if strings.Contains(b.String(), "schemaevo_stage") {
		t.Fatalf("empty registry leaked stage lines:\n%s", b.String())
	}
}

// Histogram buckets must be cumulative: a 40µs observation counts in every
// bucket from 100µs up.
func TestHistogramCumulative(t *testing.T) {
	m := NewMetrics()
	m.ObserveLatency("x", 40*time.Microsecond)
	m.ObserveLatency("x", 4*time.Second)
	var b strings.Builder
	m.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		`le="0.0001"} 1`, // 40µs lands here
		`le="1"} 1`,      // 4s not yet
		`le="5"} 2`,      // both
		`le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing cumulative bucket %q\n%s", want, out)
		}
	}
}

func TestMetricsConcurrentObserve(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.ObserveLatency("k", time.Duration(i)*time.Microsecond)
				m.requests.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := m.Snapshot().Requests; got != 4000 {
		t.Fatalf("requests = %d, want 4000", got)
	}
	var b strings.Builder
	m.WriteTo(&b)
	if !strings.Contains(b.String(), `schemaevod_experiment_latency_seconds_count{experiment="k"} 4000`) {
		t.Fatalf("histogram lost observations:\n%s", b.String())
	}
}
