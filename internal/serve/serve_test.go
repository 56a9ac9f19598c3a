package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// realStudy builds the seed-1 study once for every content test in the
// package (the pipeline costs a couple of seconds).
var realStudy = sync.OnceValues(func() (*study.Study, error) { return study.New(1) })

// realRunner serves the shared seed-1 study for any requested seed, so
// content tests never pay for more than one pipeline run.
func realRunner(tb testing.TB) func(context.Context, int64) (*study.Study, error) {
	tb.Helper()
	return func(context.Context, int64) (*study.Study, error) {
		st, err := realStudy()
		if err != nil {
			tb.Fatalf("pipeline: %v", err)
		}
		return st, nil
	}
}

// realRender is renderAll of the shared seed-1 study, rendered once for the
// whole package (a full render costs seconds).
var realRender = sync.OnceValues(func() (*store.Snapshot, error) {
	st, err := realStudy()
	if err != nil {
		return nil, err
	}
	return renderAll(context.Background(), st)
})

// sharedRender is the render seam for servers whose runner returns the
// shared seed-1 study: each run gets its own snapshot of the bytes
// realRender produced once. Any other study renders for real.
func sharedRender(ctx context.Context, st *study.Study) (*store.Snapshot, error) {
	if real, _ := realStudy(); st != real {
		return renderAll(ctx, st)
	}
	snap, err := realRender()
	if err != nil {
		return nil, err
	}
	return &store.Snapshot{Summary: snap.Summary, Artifacts: snap.Artifacts}, nil
}

// stubRender is the render seam for runners that return bare stub studies,
// which the real render cannot read: a complete set — every artifact key
// and one figure — of bytes naming the seed.
func stubRender(_ context.Context, st *study.Study) (*store.Snapshot, error) {
	arts := map[string][]byte{figurePrefix + "stub.svg": []byte("<svg>stub</svg>")}
	for _, key := range seedArtifactKeys {
		arts[key] = []byte(fmt.Sprintf("stub %s for seed %d\n", key, st.Seed))
	}
	return &store.Snapshot{Summary: study.Summary{Seed: st.Seed}, Artifacts: arts}, nil
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestEndpoints(t *testing.T) {
	srv := New(Options{Runner: RunnerFunc(realRunner(t))})
	srv.render = sharedRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	t.Run("experiment artifact", func(t *testing.T) {
		code, body, hdr := get(t, ts, "/v1/seeds/1/artifacts/funnel")
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		if !strings.Contains(body, "E01 — Data collection funnel") {
			t.Errorf("unexpected funnel body: %.120s", body)
		}
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("content type %q", ct)
		}
	})

	t.Run("every experiment key serves", func(t *testing.T) {
		for _, key := range study.ExperimentKeys() {
			code, body, _ := get(t, ts, "/v1/seeds/1/artifacts/"+key)
			if code != http.StatusOK || len(body) == 0 {
				t.Errorf("key %s: status %d, %d bytes", key, code, len(body))
			}
		}
	})

	t.Run("export.csv", func(t *testing.T) {
		code, body, hdr := get(t, ts, "/v1/seeds/1/artifacts/export.csv")
		if code != http.StatusOK || !strings.Contains(body, "project") {
			t.Fatalf("status %d: %.120s", code, body)
		}
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Errorf("content type %q", ct)
		}
	})

	t.Run("export.json", func(t *testing.T) {
		code, body, hdr := get(t, ts, "/v1/seeds/1/artifacts/export.json")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type %q", ct)
		}
		var sum struct {
			Seed     int64 `json:"seed"`
			StudySet int   `json:"study_set"`
		}
		if err := json.Unmarshal([]byte(body), &sum); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if sum.Seed != 1 || sum.StudySet == 0 {
			t.Errorf("summary = %+v", sum)
		}
	})

	t.Run("report.html", func(t *testing.T) {
		code, body, hdr := get(t, ts, "/v1/seeds/1/artifacts/report.html")
		if code != http.StatusOK || !strings.Contains(body, "<!DOCTYPE html>") {
			t.Fatalf("status %d: %.60s", code, body)
		}
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
			t.Errorf("content type %q", ct)
		}
	})

	t.Run("figures", func(t *testing.T) {
		st, _ := realStudy()
		for name := range st.SVGFigures() {
			code, body, hdr := get(t, ts, "/v1/seeds/1/figures/"+name)
			if code != http.StatusOK || !strings.Contains(body, "<svg") {
				t.Fatalf("figure %s: status %d", name, code)
			}
			if ct := hdr.Get("Content-Type"); ct != "image/svg+xml" {
				t.Errorf("figure %s: content type %q", name, ct)
			}
			break // one real figure suffices; names are covered below
		}
		if code, _, _ := get(t, ts, "/v1/seeds/1/figures/nope.svg"); code != http.StatusNotFound {
			t.Errorf("unknown figure: status %d", code)
		}
		if code, _, _ := get(t, ts, "/v1/seeds/1/figures/fig1_panel1_size"); code != http.StatusNotFound {
			t.Errorf("non-.svg figure name: status %d", code)
		}
	})

	t.Run("experiments listing", func(t *testing.T) {
		code, body, _ := get(t, ts, "/v1/experiments")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		var keys []string
		if err := json.Unmarshal([]byte(body), &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(study.ExperimentKeys()) {
			t.Errorf("%d keys, want %d", len(keys), len(study.ExperimentKeys()))
		}
	})

	t.Run("unknown artifact 404", func(t *testing.T) {
		code, body, _ := get(t, ts, "/v1/seeds/1/artifacts/nope")
		if code != http.StatusNotFound || !strings.Contains(body, "unknown artifact") {
			t.Errorf("status %d: %s", code, body)
		}
	})

	t.Run("bad seed 400", func(t *testing.T) {
		if code, _, _ := get(t, ts, "/v1/seeds/abc/artifacts/funnel"); code != http.StatusBadRequest {
			t.Errorf("status %d", code)
		}
	})

	t.Run("healthz", func(t *testing.T) {
		code, body, _ := get(t, ts, "/v1/healthz")
		if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
			t.Errorf("status %d: %s", code, body)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		code, body, _ := get(t, ts, "/v1/metrics")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		for _, want := range []string{
			"schemaevod_requests_total",
			"schemaevod_cache_hits_total",
			"schemaevod_pipeline_runs_total",
			"schemaevod_experiment_latency_seconds_bucket",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("metrics missing %s", want)
			}
		}
	})
}

// TestConcurrentRequests is the race-hardening test: 48 goroutines hammer a
// mix of identical and distinct seeds; the pipeline must run exactly once
// per seed and the metrics must balance afterwards. Run under -race.
func TestConcurrentRequests(t *testing.T) {
	const (
		goroutines = 48
		perWorker  = 4
		seedCount  = 4
	)
	var runs [seedCount + 1]atomic.Int64
	runner := func(_ context.Context, seed int64) (*study.Study, error) {
		runs[seed].Add(1)
		time.Sleep(20 * time.Millisecond) // widen the dedup window
		return &study.Study{Seed: seed}, nil
	}
	srv := New(Options{CacheSize: seedCount, Timeout: 30 * time.Second, Runner: RunnerFunc(runner)})
	srv.render = stubRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perWorker)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seed := 1 + (g+i)%seedCount
				resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/seeds/%d/artifacts/export.csv", ts.URL, seed))
				if err != nil {
					errs <- err
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("seed %d: status %d: %s", seed, resp.StatusCode, body)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for seed := 1; seed <= seedCount; seed++ {
		if n := runs[seed].Load(); n != 1 {
			t.Errorf("seed %d: pipeline ran %d times, want exactly 1 (singleflight)", seed, n)
		}
	}

	s := srv.Metrics().Snapshot()
	total := int64(goroutines * perWorker)
	if s.Requests != total {
		t.Errorf("requests = %d, want %d", s.Requests, total)
	}
	if s.CacheHits+s.CacheMisses != total {
		t.Errorf("hits(%d) + misses(%d) != requests(%d)", s.CacheHits, s.CacheMisses, total)
	}
	if s.PipelineRuns != seedCount {
		t.Errorf("pipeline runs = %d, want %d", s.PipelineRuns, seedCount)
	}
	// Every miss either started a run, joined a flight, or resolved on the
	// post-flight cache re-check.
	if s.PipelineRuns+s.FlightJoins > s.CacheMisses {
		t.Errorf("runs(%d) + joins(%d) exceed misses(%d)", s.PipelineRuns, s.FlightJoins, s.CacheMisses)
	}
	if s.Inflight != 0 {
		t.Errorf("inflight = %d after drain, want 0", s.Inflight)
	}
	if s.CacheEntries != seedCount {
		t.Errorf("cache entries = %d, want %d", s.CacheEntries, seedCount)
	}
	if s.Errors != 0 || s.Timeouts != 0 {
		t.Errorf("errors = %d, timeouts = %d, want 0", s.Errors, s.Timeouts)
	}
}

// TestRequestTimeout: a runner slower than the deadline produces 504, and
// the run still completes in the background and fills the cache.
func TestRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	runner := func(_ context.Context, seed int64) (*study.Study, error) {
		<-release
		return &study.Study{Seed: seed}, nil
	}
	srv := New(Options{Timeout: 30 * time.Millisecond, Runner: RunnerFunc(runner)})
	srv.render = stubRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body, _ := get(t, ts, "/v1/seeds/9/artifacts/export.csv")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", code, body)
	}
	close(release)
	// The orphaned flight must finish and cache the rendered set; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if srv.seeds.cache.Has(9) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned run never filled the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Metrics().Snapshot().Timeouts; got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	// The next request is a pure cache hit.
	if code, _, _ := get(t, ts, "/v1/seeds/9/artifacts/export.csv"); code != http.StatusOK {
		t.Errorf("post-warm status %d", code)
	}
}

func TestRunnerErrorIs500(t *testing.T) {
	runner := func(_ context.Context, seed int64) (*study.Study, error) {
		return nil, fmt.Errorf("corpus exploded")
	}
	srv := New(Options{Runner: RunnerFunc(runner)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	code, body, _ := get(t, ts, "/v1/seeds/1/artifacts/export.csv")
	if code != http.StatusInternalServerError || !strings.Contains(body, "corpus exploded") {
		t.Fatalf("status %d: %s", code, body)
	}
	if srv.seeds.cache.Len() != 0 {
		t.Error("failed run must not be cached")
	}
	if srv.Metrics().Snapshot().Errors != 1 {
		t.Error("error counter not bumped")
	}
}

func TestPrewarm(t *testing.T) {
	var runs atomic.Int64
	runner := func(_ context.Context, seed int64) (*study.Study, error) {
		runs.Add(1)
		return &study.Study{Seed: seed}, nil
	}
	srv := New(Options{CacheSize: 4, Runner: RunnerFunc(runner)})
	srv.render = stubRender
	if err := srv.Prewarm(context.Background(), []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 3 || srv.seeds.cache.Len() != 3 {
		t.Fatalf("runs = %d, cached = %d", runs.Load(), srv.seeds.cache.Len())
	}
}

// TestGracefulShutdown drives the real listener loop: cancel the context,
// expect a clean drain.
func TestGracefulShutdown(t *testing.T) {
	srv := New(Options{Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		return &study.Study{Seed: seed}, nil
	})})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveListener(ctx, ln, srv, 2*time.Second, nil) }()

	url := "http://" + ln.Addr().String()
	var resp *http.Response
	for i := 0; i < 50; i++ { // wait for the loop to accept
		resp, err = http.Get(url + "/v1/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not drain within 5s")
	}
	if !srv.Metrics().shuttingDown.Load() {
		t.Error("drain flag not set")
	}
}
