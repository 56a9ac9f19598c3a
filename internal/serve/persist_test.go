package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/ingest"
	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// populatedStore builds — once for the whole package — a disk store holding
// the seed-1 snapshot, written through the real write-behind path: a server
// runs the pipeline, renders the set and saves it, and Prewarm waits it out.
// Rendering every artifact (report.html included) costs seconds, so all
// persistence tests share this one directory read-only; the fault test
// copies it before damaging anything.
var populatedStore = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "schemaevod-store-")
	if err != nil {
		return "", err
	}
	d, err := store.Open(dir)
	if err != nil {
		return "", err
	}
	srv := New(Options{
		Store: d,
		Runner: RunnerFunc(func(context.Context, int64) (*study.Study, error) {
			return realStudy()
		}),
	})
	srv.render = sharedRender
	if err := srv.Prewarm(context.Background(), []int64{1}); err != nil {
		return "", err
	}
	if s := srv.Metrics().Snapshot(); s.StoreSaves != 1 {
		return "", errSavesMissing
	}
	return dir, nil
})

var errSavesMissing = &storeSetupError{}

type storeSetupError struct{}

func (*storeSetupError) Error() string { return "write-behind save did not land" }

func openPopulated(t *testing.T) string {
	t.Helper()
	dir, err := populatedStore()
	if err != nil {
		t.Fatalf("populating shared store: %v", err)
	}
	return dir
}

// refusingRunner fails the test if the pipeline is ever invoked — the
// warm-restart contract is "zero runs".
func refusingRunner(t *testing.T, runs *atomic.Int64) Runner {
	return RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		runs.Add(1)
		t.Errorf("pipeline ran for seed %d — warm restart must serve from the store", seed)
		return realStudy()
	})
}

// TestWarmRestartServesGolden is the headline acceptance test: a fresh
// server process pointed at an existing store directory serves every golden
// seed-1 artifact byte-identically with zero pipeline runs.
func TestWarmRestartServesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	dir := openPopulated(t)
	d, err := store.Open(dir) // fresh handle = restarted process
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	srv := New(Options{Store: d, Runner: refusingRunner(t, &runs)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	goldenDir := filepath.Join("..", "..", "cmd", "studyrun", "testdata", "golden")
	for _, key := range study.ExperimentKeys() {
		want, err := os.ReadFile(filepath.Join(goldenDir, key+".txt"))
		if err != nil {
			t.Fatalf("golden %s: %v", key, err)
		}
		code, body, _ := get(t, ts, "/v1/seeds/1/artifacts/"+key)
		if code != 200 {
			t.Fatalf("artifact %s: status %d: %.120s", key, code, body)
		}
		if body != string(want) {
			t.Errorf("artifact %s drifted from the golden bytes after store round-trip", key)
		}
	}
	// The exports and figures restore too.
	for _, path := range []string{
		"/v1/seeds/1/artifacts/export.csv",
		"/v1/seeds/1/artifacts/export.json",
		"/v1/seeds/1/artifacts/report.html",
	} {
		if code, body, _ := get(t, ts, path); code != 200 || len(body) == 0 {
			t.Errorf("%s: status %d, %d bytes", path, code, len(body))
		}
	}
	st, _ := realStudy()
	for name := range st.SVGFigures() {
		if code, body, _ := get(t, ts, "/v1/seeds/1/figures/"+name); code != 200 || !strings.Contains(body, "<svg") {
			t.Errorf("figure %s did not restore: status %d", name, code)
		}
	}
	// An unknown figure must 404 without waking the pipeline: the snapshot
	// carries the complete figure set.
	if code, _, _ := get(t, ts, "/v1/seeds/1/figures/nope.svg"); code != 404 {
		t.Errorf("unknown figure on restored seed: status %d", code)
	}

	if n := runs.Load(); n != 0 {
		t.Errorf("pipeline ran %d times on a warm restart, want 0", n)
	}
	s := srv.Metrics().Snapshot()
	if s.PipelineRuns != 0 {
		t.Errorf("pipeline_runs = %d, want 0", s.PipelineRuns)
	}
	if s.StoreHits != 1 {
		t.Errorf("store_hits = %d, want 1 (one snapshot restore)", s.StoreHits)
	}
}

// copyStore clones the shared read-only store directory so a test can
// damage its own copy.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// populatedHistoryStore builds a disk store holding one ingested history's
// snapshot, written through the real write-behind, and returns its
// directory and the upload.
func populatedHistoryStore(t *testing.T) (string, *ingest.Upload) {
	t.Helper()
	dir := t.TempDir()
	d, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{HistoryStore: d})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := historyUpload(7)
	if code, raw := postHistory(t, ts, body, "application/json"); code != http.StatusCreated {
		t.Fatalf("populating POST: %d: %s", code, raw)
	}
	srv.SyncStore()
	if s := srv.Metrics().Snapshot(); s.StoreSaves != 1 {
		t.Fatalf("store_saves = %d, want 1", s.StoreSaves)
	}
	up, err := ingest.Prepare("application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	return dir, up
}

// TestStoreFaultDegrades: damaged snapshot blobs must never surface as an
// error or a crash — the daemon counts the corruption, falls back to a
// fresh run, and still serves the correct bytes. A seed degrades to a cold
// pipeline run on its next GET; a history, whose run needs the upload body,
// on its next re-upload.
func TestStoreFaultDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	goldenFunnel, err := os.ReadFile(filepath.Join("..", "..", "cmd", "studyrun", "testdata", "golden", "funnel.txt"))
	if err != nil {
		t.Fatal(err)
	}
	histDir, up := populatedHistoryStore(t)
	res, err := ingest.Run(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	wantProfile := string(res.Artifacts[ingest.ArtifactProfile])

	kinds := []struct {
		prefix string // subtest name prefix; seeds keep the bare corruption names
		dir    func(t *testing.T) string
		// degrade serves the damaged store and checks the degraded answer.
		degrade func(t *testing.T, d store.Store) *Server
	}{
		{"", openPopulated, func(t *testing.T, d store.Store) *Server {
			var runs atomic.Int64
			srv := New(Options{Store: d, Runner: RunnerFunc(func(context.Context, int64) (*study.Study, error) {
				runs.Add(1)
				return realStudy()
			})})
			srv.render = sharedRender
			ts := httptest.NewServer(srv)
			defer ts.Close()
			code, body, _ := get(t, ts, "/v1/seeds/1/artifacts/funnel")
			if code != 200 {
				t.Fatalf("corrupt store must degrade to a cold run, got status %d: %.120s", code, body)
			}
			if body != string(goldenFunnel) {
				t.Error("cold-run fallback served wrong bytes")
			}
			if n := runs.Load(); n != 1 {
				t.Errorf("pipeline runs = %d, want exactly 1 (the degrade)", n)
			}
			srv.SyncStore() // the re-persist writes into the test's temp dir
			return srv
		}},
		{"history-", func(*testing.T) string { return histDir }, func(t *testing.T, d store.Store) *Server {
			srv := New(Options{HistoryStore: d})
			ts := httptest.NewServer(srv)
			defer ts.Close()
			code, raw := postHistory(t, ts, historyUpload(7), "application/json")
			if code != http.StatusCreated {
				t.Fatalf("corrupt store must degrade to a fresh ingest run, got status %d: %.120s", code, raw)
			}
			code, body, _ := get(t, ts, "/v1/histories/"+up.ID+"/artifacts/profile.json")
			if code != 200 || body != wantProfile {
				t.Errorf("fresh-run fallback: status %d, profile matches ingest.Run: %t", code, body == wantProfile)
			}
			srv.SyncStore() // the re-persist writes into the test's temp dir
			return srv
		}},
	}
	for _, kind := range kinds {
		for _, tc := range []struct {
			name    string
			corrupt func(b []byte) []byte
		}{
			{"bit-flip", func(b []byte) []byte {
				if len(b) > 0 {
					b[len(b)/2] ^= 0x01
				}
				return b
			}},
			{"truncate", func(b []byte) []byte { return b[:len(b)/2] }},
		} {
			t.Run(kind.prefix+tc.name, func(t *testing.T) {
				dir := copyStore(t, kind.dir(t))
				// Damage every blob so the restore fails no matter which blob
				// the loader reads first.
				objects := filepath.Join(dir, "objects")
				des, err := os.ReadDir(objects)
				if err != nil {
					t.Fatal(err)
				}
				if len(des) == 0 {
					t.Fatal("populated store has no objects")
				}
				for _, de := range des {
					path := filepath.Join(objects, de.Name())
					b, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, tc.corrupt(b), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				d, err := store.Open(dir)
				if err != nil {
					t.Fatalf("Open must tolerate damaged blobs, got %v", err)
				}
				s := kind.degrade(t, d).Metrics().Snapshot()
				if s.StoreCorrupt != 1 {
					t.Errorf("store_corrupt = %d, want 1", s.StoreCorrupt)
				}
				if s.StoreHits != 0 {
					t.Errorf("store_hits = %d, want 0", s.StoreHits)
				}
			})
		}
	}
}

// fakeSnapshot fabricates a snapshot with distinctive bytes, for tests that
// must not pay for real pipeline runs.
func fakeSnapshot(seed int64) *store.Snapshot {
	return &store.Snapshot{
		Seed:    seed,
		SavedAt: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
		Summary: study.Summary{Seed: seed},
		Artifacts: map[string][]byte{
			"funnel":         []byte("stored funnel"),
			"export.csv":     []byte("stored,csv\n"),
			"figures/f1.svg": []byte("<svg>stored</svg>"),
		},
	}
}

// TestPrewarmRestoresFromStore: prewarming seeds already in the store is
// pure restore — the pipeline never runs.
func TestPrewarmRestoresFromStore(t *testing.T) {
	m := store.NewMem()
	ctx := context.Background()
	for _, seed := range []int64{1, 2} {
		if err := m.Put(ctx, seed, fakeSnapshot(seed)); err != nil {
			t.Fatal(err)
		}
	}
	var runs atomic.Int64
	srv := New(Options{Store: m, Runner: refusingRunner(t, &runs)})
	if err := srv.Prewarm(ctx, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if srv.seeds.cache.Len() != 2 {
		t.Errorf("cache holds %d seeds, want 2", srv.seeds.cache.Len())
	}
	s := srv.Metrics().Snapshot()
	if s.StoreHits != 2 || s.PipelineRuns != 0 {
		t.Errorf("store_hits = %d, pipeline_runs = %d; want 2 and 0", s.StoreHits, s.PipelineRuns)
	}
	// The restored bytes actually serve.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code, body, _ := get(t, ts, "/v1/seeds/2/artifacts/funnel"); code != 200 || body != "stored funnel" {
		t.Errorf("restored artifact: status %d body %q", code, body)
	}
}

// TestPrewarmParallel: the worker pool warms distinct seeds concurrently —
// with slow runners, total wall time must be far below the sequential sum.
func TestPrewarmParallel(t *testing.T) {
	const seeds = 4
	var runs, inflight, peak atomic.Int64
	runner := RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runs.Add(1)
		time.Sleep(50 * time.Millisecond)
		return &study.Study{Seed: seed}, nil
	})
	srv := New(Options{CacheSize: seeds, PrewarmWorkers: seeds, Runner: runner})
	srv.render = stubRender
	start := time.Now()
	if err := srv.Prewarm(context.Background(), []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if runs.Load() != seeds {
		t.Errorf("runs = %d, want %d", runs.Load(), seeds)
	}
	if srv.seeds.cache.Len() != seeds {
		t.Errorf("cache = %d seeds, want %d", srv.seeds.cache.Len(), seeds)
	}
	if peak.Load() < 2 {
		t.Errorf("peak concurrent runs = %d — prewarm did not parallelize", peak.Load())
	}
	if took > seeds*50*time.Millisecond {
		t.Errorf("prewarm took %v — no faster than sequential", took)
	}
}

// TestWriteBehindPanicContained: a study whose render panics (the stub has
// no funnel) must not take the daemon down — the request waiting on the
// render gets a 500, and nothing is saved or cached.
func TestWriteBehindPanicContained(t *testing.T) {
	m := store.NewMem()
	srv := New(Options{Store: m, Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		return &study.Study{Seed: seed}, nil
	})})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	code, _, _ := get(t, ts, "/v1/seeds/9/artifacts/export.csv")
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d", code)
	}
	srv.SyncStore()
	if s := srv.Metrics().Snapshot(); s.StoreSaves != 0 {
		t.Errorf("store_saves = %d, want 0 (render must have failed)", s.StoreSaves)
	}
	if seeds, _ := m.List(context.Background()); len(seeds) != 0 {
		t.Errorf("a panicked render persisted anyway: %v", seeds)
	}
}

// TestMemoHitMetric: the second request for one artifact is served from the
// per-seed render memo.
func TestMemoHitMetric(t *testing.T) {
	m := store.NewMem()
	if err := m.Put(context.Background(), 1, fakeSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	srv := New(Options{Store: m, Runner: refusingRunner(t, &runs)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 3; i++ {
		if code, _, _ := get(t, ts, "/v1/seeds/1/artifacts/funnel"); code != 200 {
			t.Fatalf("status %d", code)
		}
	}
	s := srv.Metrics().Snapshot()
	if s.MemoHits != 2 {
		t.Errorf("memo_hits = %d, want 2 (first request restores, next two memo-hit)", s.MemoHits)
	}
	if s.CacheHits+s.CacheMisses != s.Requests {
		t.Errorf("hits(%d) + misses(%d) != requests(%d)", s.CacheHits, s.CacheMisses, s.Requests)
	}
}

// TestV1ErrorEnvelope: /v1 errors are the uniform JSON envelope; a removed
// legacy route falls through to the mux's plain-text 404.
func TestV1ErrorEnvelope(t *testing.T) {
	srv := New(Options{Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		return &study.Study{Seed: seed}, nil
	})})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	t.Run("unknown artifact", func(t *testing.T) {
		code, body, hdr := get(t, ts, "/v1/seeds/1/artifacts/nope")
		if code != 404 {
			t.Fatalf("status %d", code)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type %q, want application/json", ct)
		}
		var env struct {
			Error string `json:"error"`
			Code  int    `json:"code"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatalf("not a JSON envelope: %v: %s", err, body)
		}
		if env.Code != 404 || !strings.Contains(env.Error, "unknown artifact") {
			t.Errorf("envelope = %+v", env)
		}
	})

	t.Run("bad seed", func(t *testing.T) {
		code, body, _ := get(t, ts, "/v1/seeds/zebra/artifacts/funnel")
		if code != 400 {
			t.Fatalf("status %d", code)
		}
		var env struct {
			Code int `json:"code"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Code != 400 {
			t.Errorf("envelope: %v (%s)", err, body)
		}
	})

	t.Run("legacy stays plain text", func(t *testing.T) {
		code, body, hdr := get(t, ts, "/v1/study/1/nope")
		if code != 404 {
			t.Fatalf("status %d", code)
		}
		if ct := hdr.Get("Content-Type"); strings.Contains(ct, "json") {
			t.Errorf("legacy error content type %q", ct)
		}
		if strings.HasPrefix(strings.TrimSpace(body), "{") {
			t.Errorf("legacy error body is JSON: %s", body)
		}
	})
}

// TestLegacyRoutesRemoved: the pre-/v1 aliases are gone — each answers
// the mux's 404 — and so is their hit counter.
func TestLegacyRoutesRemoved(t *testing.T) {
	m := store.NewMem()
	if err := m.Put(context.Background(), 1, fakeSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	srv := New(Options{Store: m, Runner: refusingRunner(t, &runs)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, path := range []string{"/v1/study/1/funnel", "/healthz", "/metrics", "/debug/trace?seed=1"} {
		if code, _, _ := get(t, ts, path); code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, code)
		}
	}
	if _, body, _ := get(t, ts, "/v1/metrics"); strings.Contains(body, "schemaevod_legacy_requests_total") {
		t.Error("metrics exposition still carries schemaevod_legacy_requests_total")
	}
}

// TestSeedsEndpoint: /v1/seeds reports cached and stored seeds.
func TestSeedsEndpoint(t *testing.T) {
	m := store.NewMem()
	ctx := context.Background()
	for _, seed := range []int64{3, 7} {
		if err := m.Put(ctx, seed, fakeSnapshot(seed)); err != nil {
			t.Fatal(err)
		}
	}
	var runs atomic.Int64
	srv := New(Options{Store: m, Runner: refusingRunner(t, &runs)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code, _, _ := get(t, ts, "/v1/seeds/3/artifacts/funnel"); code != 200 {
		t.Fatal("warmup request failed")
	}
	code, body, _ := get(t, ts, "/v1/seeds")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var resp struct {
		Cached []int64 `json:"cached"`
		Stored []int64 `json:"stored"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Cached) != 1 || resp.Cached[0] != 3 {
		t.Errorf("cached = %v, want [3]", resp.Cached)
	}
	if len(resp.Stored) != 2 {
		t.Errorf("stored = %v, want two seeds", resp.Stored)
	}
}
