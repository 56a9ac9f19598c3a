package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// TestDebugTrace: the endpoint runs one instrumented pipeline execution and
// responds with Chrome trace JSON whose events carry the stage names the
// runner opened; the result also fills the cache (instrumented prewarm).
func TestDebugTrace(t *testing.T) {
	runner := func(ctx context.Context, seed int64) (*study.Study, error) {
		ctx, span := obs.Start(ctx, "study.new", obs.Int("seed", seed))
		_, inner := obs.Start(ctx, "corpus.generate")
		inner.End()
		span.End()
		return &study.Study{Seed: seed}, nil
	}
	srv := New(Options{Runner: RunnerFunc(runner)})
	srv.render = stubRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body, hdr := get(t, ts, "/v1/debug/trace?seed=5")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("response is not valid trace JSON: %v\n%s", err, body)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	if !names["study.new"] || !names["corpus.generate"] {
		t.Fatalf("trace missing stage spans, got %v", names)
	}
	if !srv.seeds.cache.Has(5) {
		t.Error("/v1/debug/trace must fill the cache for its seed")
	}
	s := srv.Metrics().Snapshot()
	if s.PipelineRuns != 1 || s.PipelineInflight != 0 {
		t.Errorf("runs = %d inflight = %d, want 1 and 0", s.PipelineRuns, s.PipelineInflight)
	}
}

func TestDebugTraceBadSeed(t *testing.T) {
	srv := New(Options{Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		return &study.Study{Seed: seed}, nil
	})})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code, body, _ := get(t, ts, "/v1/debug/trace?seed=banana"); code != 400 {
		t.Fatalf("status %d: %s", code, body)
	}
}

// TestPprofMounted: the server runs its own mux, so the stdlib profiles must
// be wired explicitly — the index page is the canary.
func TestPprofMounted(t *testing.T) {
	srv := New(Options{Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		return &study.Study{Seed: seed}, nil
	})})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	code, body, _ := get(t, ts, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d: %.120s", code, body)
	}
}

// TestServerStageMetrics: a pipeline run through the normal study path must
// populate the schemaevo_stage_* families in /v1/metrics via the server's
// shared metrics-only tracer.
func TestServerStageMetrics(t *testing.T) {
	runner := func(ctx context.Context, seed int64) (*study.Study, error) {
		_, span := obs.Start(ctx, "history.analyze")
		time.Sleep(time.Millisecond)
		span.End()
		return &study.Study{Seed: seed}, nil
	}
	srv := New(Options{Runner: RunnerFunc(runner)})
	srv.render = stubRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, body, _ := get(t, ts, "/v1/seeds/3/artifacts/export.csv"); code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	_, body, _ := get(t, ts, "/v1/metrics")
	for _, want := range []string{
		"# TYPE schemaevo_stage_duration_seconds histogram",
		`schemaevo_stage_duration_seconds_count{stage="history.analyze"} 1`,
		`schemaevo_stage_runs_total{stage="history.analyze"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/metrics missing %q\n%s", want, body)
		}
	}
}

// TestOrphanedRunMetrics: a request that times out while its flight keeps
// executing must count one orphaned run, and the inflight gauge must return
// to zero once the run completes.
func TestOrphanedRunMetrics(t *testing.T) {
	release := make(chan struct{})
	runner := func(_ context.Context, seed int64) (*study.Study, error) {
		<-release
		return &study.Study{Seed: seed}, nil
	}
	srv := New(Options{Timeout: 20 * time.Millisecond, Runner: RunnerFunc(runner)})
	srv.render = stubRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, body, _ := get(t, ts, "/v1/seeds/7/artifacts/export.csv"); code != 504 {
		t.Fatalf("status %d: %s", code, body)
	}
	s := srv.Metrics().Snapshot()
	if s.OrphanedRuns != 1 {
		t.Errorf("orphaned runs = %d, want 1", s.OrphanedRuns)
	}
	if s.PipelineInflight != 1 {
		t.Errorf("inflight = %d while run is stuck, want 1", s.PipelineInflight)
	}
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().Snapshot().PipelineInflight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("pipeline inflight gauge never returned to zero")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCacheEntriesNeverNegative: concurrent inserts with constant eviction
// must keep the entries gauge consistent — never below zero, and equal to
// the real cache length once the dust settles.
func TestCacheEntriesNeverNegative(t *testing.T) {
	m := newMetricsWithStages(obs.NewStageRegistry())
	c := newResourceCache(2, m)
	stop := make(chan struct{})
	var negatives sync.Map
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := m.Snapshot().CacheEntries; n < 0 {
				negatives.Store(n, true)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Install(int64((g*500+i)%16), stubSet(int64(i)))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	watcher.Wait()

	negatives.Range(func(k, _ any) bool {
		t.Errorf("cacheEntries went negative: %v", k)
		return true
	})
	if got, want := m.Snapshot().CacheEntries, int64(c.Len()); got != want {
		t.Errorf("cacheEntries = %d, cache len = %d", got, want)
	}
}

// TestDebugStats: /v1/debug/stats joins the per-experiment request-latency
// histograms with the per-stage pipeline durations in one JSON document.
func TestDebugStats(t *testing.T) {
	runner := func(ctx context.Context, seed int64) (*study.Study, error) {
		_, span := obs.Start(ctx, "corpus.generate")
		time.Sleep(time.Millisecond)
		span.End()
		return &study.Study{Seed: seed}, nil
	}
	srv := New(Options{Runner: RunnerFunc(runner)})
	srv.render = stubRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if code, body, _ := get(t, ts, "/v1/seeds/2/artifacts/export.csv"); code != 200 {
			t.Fatalf("warmup status %d: %s", code, body)
		}
	}
	code, body, hdr := get(t, ts, "/v1/debug/stats")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var doc StatsDocument
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, body)
	}
	exp, ok := doc.Experiments["export.csv"]
	if !ok {
		t.Fatalf("experiments missing export.csv: %+v", doc.Experiments)
	}
	if exp.Count != 3 || exp.SumSeconds <= 0 || exp.AvgSeconds <= 0 {
		t.Errorf("export.csv entry = %+v", exp)
	}
	if exp.P50Seconds <= 0 || exp.P99Seconds < exp.P50Seconds {
		t.Errorf("quantiles inverted or zero: %+v", exp)
	}
	st, ok := doc.Stages["corpus.generate"]
	if !ok {
		t.Fatalf("stages missing corpus.generate: %+v", doc.Stages)
	}
	// The stage registry is process-wide, so other tests in the package may
	// have observed this stage too — assert presence, not an exact count.
	if st.Count < 1 || st.AvgSeconds <= 0 {
		t.Errorf("corpus.generate entry = %+v", st)
	}
}

// TestDebugTraceHeadSampling: with a small TraceMaxSpans the trace response
// retains only the head of the span stream and the dropped counter surfaces
// in /v1/metrics.
func TestDebugTraceHeadSampling(t *testing.T) {
	runner := func(ctx context.Context, seed int64) (*study.Study, error) {
		for i := 0; i < 10; i++ {
			_, span := obs.Start(ctx, "study.fanout")
			span.End()
		}
		return &study.Study{Seed: seed}, nil
	}
	srv := New(Options{Runner: RunnerFunc(runner), TraceMaxSpans: 4})
	srv.render = stubRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body, _ := get(t, ts, "/v1/debug/trace?seed=2")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(trace.TraceEvents) != 4 {
		t.Errorf("trace retained %d events, want 4 (head-sampled)", len(trace.TraceEvents))
	}
	_, metrics, _ := get(t, ts, "/v1/metrics")
	if !strings.Contains(metrics, "schemaevo_trace_dropped_spans_total") {
		t.Error("metrics exposition missing schemaevo_trace_dropped_spans_total")
	}
}

// TestHealthShardIdentity: /v1/healthz carries the fields the proxy's
// shard-aware aggregation keys on — snapshot_count, store_path,
// pipeline_workers — alongside the original readiness digest.
func TestHealthShardIdentity(t *testing.T) {
	dir := t.TempDir()
	d, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(context.Background(), 4, fakeSnapshot(4)); err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: d, PipelineWorkers: 3, Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		return &study.Study{Seed: seed}, nil
	})})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body, _ := get(t, ts, "/v1/healthz")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var h struct {
		Status          string `json:"status"`
		SnapshotCount   int    `json:"snapshot_count"`
		StorePath       string `json:"store_path"`
		PipelineWorkers int    `json:"pipeline_workers"`
		StoredSeeds     int    `json:"stored_seeds"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.SnapshotCount != 1 || h.StoredSeeds != 1 {
		t.Errorf("healthz = %+v", h)
	}
	if h.StorePath != d.Dir() {
		t.Errorf("store_path = %q, want %q", h.StorePath, d.Dir())
	}
	if h.PipelineWorkers != 3 {
		t.Errorf("pipeline_workers = %d, want 3", h.PipelineWorkers)
	}

	// Without a store the identity fields are present but zero-valued, and
	// workers resolve to GOMAXPROCS.
	srv2 := New(Options{Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		return &study.Study{Seed: seed}, nil
	})})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	_, body2, _ := get(t, ts2, "/v1/healthz")
	var h2 struct {
		SnapshotCount   int    `json:"snapshot_count"`
		StorePath       string `json:"store_path"`
		PipelineWorkers int    `json:"pipeline_workers"`
	}
	if err := json.Unmarshal([]byte(body2), &h2); err != nil {
		t.Fatal(err)
	}
	if h2.SnapshotCount != 0 || h2.StorePath != "" || h2.PipelineWorkers < 1 {
		t.Errorf("storeless healthz identity = %+v", h2)
	}
}
