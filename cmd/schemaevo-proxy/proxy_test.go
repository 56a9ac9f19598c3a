package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/serve"
	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// --- shared fixtures ---------------------------------------------------------

// realStudy builds the seed-1 study once for every content test in the
// package (the pipeline costs seconds; everything downstream shares it).
var realStudy = sync.OnceValues(func() (*study.Study, error) { return study.New(1) })

// populatedStore builds — once — a disk store holding the seed-1 snapshot via
// the real write-behind path, the same way a fleet's shared store directory
// is populated in production. Every multi-backend test opens fresh handles on
// this directory.
var populatedStore = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "schemaevo-proxy-store-")
	if err != nil {
		return "", err
	}
	d, err := store.Open(dir)
	if err != nil {
		return "", err
	}
	srv := serve.New(serve.Options{
		Store:   d,
		Timeout: 5 * time.Minute,
		Runner: serve.RunnerFunc(func(context.Context, int64) (*study.Study, error) {
			return realStudy()
		}),
	})
	if err := srv.Prewarm(context.Background(), []int64{1}); err != nil {
		return "", err
	}
	if s := srv.Metrics().Snapshot(); s.StoreSaves != 1 {
		return "", errors.New("write-behind save did not land")
	}
	return dir, nil
})

// refusingRunner fails the test if a backend ever runs the pipeline — warm
// fleet members must serve every request from the shared store.
func refusingRunner(tb testing.TB) serve.Runner {
	return serve.RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		tb.Errorf("pipeline ran for seed %d — backends must serve from the shared store", seed)
		return realStudy()
	})
}

// stallable wraps a backend handler with a switchable delay on the routed
// seed paths — the "slow shard" a hedge is supposed to route around. Health
// checks stay fast so the shard remains nominally up.
type stallable struct {
	inner http.Handler
	stall atomic.Bool
	delay time.Duration
}

func (s *stallable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.stall.Load() && strings.HasPrefix(r.URL.Path, "/v1/seeds/") {
		time.Sleep(s.delay)
	}
	s.inner.ServeHTTP(w, r)
}

// warmBackend opens a fresh handle on the shared populated store and serves
// it — a fleet member that must never run the pipeline.
func warmBackend(tb testing.TB) *httptest.Server {
	tb.Helper()
	dir, err := populatedStore()
	if err != nil {
		tb.Fatalf("populating shared store: %v", err)
	}
	d, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Options{Store: d, Runner: refusingRunner(tb)}))
	tb.Cleanup(ts.Close)
	return ts
}

// fakeSnap fabricates a snapshot with distinctive bytes for tests that must
// not pay for real pipeline runs.
func fakeSnap(seed int64) *store.Snapshot {
	return &store.Snapshot{
		Seed:    seed,
		SavedAt: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
		Summary: study.Summary{Seed: seed},
		Artifacts: map[string][]byte{
			"funnel":         []byte(fmt.Sprintf("stored funnel for seed %d", seed)),
			"export.csv":     []byte("stored,csv\n"),
			"figures/f1.svg": []byte("<svg>stored</svg>"),
		},
	}
}

// memBackend serves fake snapshots for the given seeds from a memory store —
// the cheap stand-in for aggregation tests.
func memBackend(tb testing.TB, seeds ...int64) *httptest.Server {
	tb.Helper()
	m := store.NewMem()
	for _, seed := range seeds {
		if err := m.Put(context.Background(), seed, fakeSnap(seed)); err != nil {
			tb.Fatal(err)
		}
	}
	ts := httptest.NewServer(serve.New(serve.Options{
		Store: m,
		Runner: serve.RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
			return nil, fmt.Errorf("no pipeline for seed %d in this test", seed)
		}),
	}))
	tb.Cleanup(ts.Close)
	return ts
}

// newTestProxy builds a proxy over the given backends and serves it.
func newTestProxy(tb testing.TB, hedge time.Duration, backends ...string) (*Proxy, *httptest.Server) {
	tb.Helper()
	p, err := newProxy(proxyOptions{Backends: backends, HedgeDelay: hedge})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(p)
	tb.Cleanup(ts.Close)
	return p, ts
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

func readGolden(t *testing.T, key string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "studyrun", "testdata", "golden", key+".txt"))
	if err != nil {
		t.Fatalf("golden %s: %v", key, err)
	}
	return want
}

// --- routing and normalization ----------------------------------------------

func TestParseBackends(t *testing.T) {
	got, err := parseBackends(" 127.0.0.1:8081 ,http://127.0.0.1:8082/,https://shard3.example")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://127.0.0.1:8081", "http://127.0.0.1:8082", "https://shard3.example"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("backend %d = %q, want %q", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"", " , ", "ftp://x", "http://"} {
		if _, err := parseBackends(bad); err == nil {
			t.Errorf("parseBackends(%q) accepted", bad)
		}
	}
}

// TestProxyRoutesToRingOwner: every routed response comes from the ring
// owner of the seed, and the backend provenance header says so.
func TestProxyRoutesToRingOwner(t *testing.T) {
	b1, b2, b3 := memBackend(t, 1, 2, 3, 4, 5), memBackend(t, 1, 2, 3, 4, 5), memBackend(t, 1, 2, 3, 4, 5)
	p, ts := newTestProxy(t, 0, b1.URL, b2.URL, b3.URL)
	for seed := int64(1); seed <= 5; seed++ {
		owner, ok := p.table.Ring().Route(seed)
		if !ok {
			t.Fatal("empty ring")
		}
		code, body, hdr := get(t, ts, fmt.Sprintf("/v1/seeds/%d/artifacts/funnel", seed))
		if code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, code, body)
		}
		if got := hdr.Get("X-Schemaevo-Backend"); got != owner {
			t.Errorf("seed %d served by %s, ring owner is %s", seed, got, owner)
		}
		if want := fmt.Sprintf("stored funnel for seed %d", seed); body != want {
			t.Errorf("seed %d body %q, want %q", seed, body, want)
		}
	}
}

func TestProxyErrorEnvelope(t *testing.T) {
	b := memBackend(t, 1)
	p, ts := newTestProxy(t, 0, b.URL)

	code, body, _ := get(t, ts, "/v1/seeds/notanumber/artifacts/funnel")
	var env serve.ErrEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || code != http.StatusBadRequest || env.Code != http.StatusBadRequest {
		t.Errorf("bad seed: status %d, body %q", code, body)
	}

	// Every shard down: the proxy refuses with the same envelope shape.
	p.health.MarkDown(b.URL, errors.New("test: forced down"))
	code, body, _ = get(t, ts, "/v1/seeds/1/artifacts/funnel")
	if err := json.Unmarshal([]byte(body), &env); err != nil || code != http.StatusServiceUnavailable || env.Seed != 1 {
		t.Errorf("all down: status %d, body %q", code, body)
	}
}

// --- shard-aware health -------------------------------------------------------

func TestProxyHealthAggregation(t *testing.T) {
	b1, b2 := memBackend(t, 1), memBackend(t, 2, 3)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	p, ts := newTestProxy(t, 0, b1.URL, b2.URL, dead.URL)
	p.health.CheckAll(context.Background())

	code, body, _ := get(t, ts, "/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("degraded fleet must still answer 200, got %d: %s", code, body)
	}
	var doc struct {
		Status string `json:"status"`
		Ring   struct {
			Members  int     `json:"members"`
			Live     int     `json:"live"`
			Version  int64   `json:"version"`
			Coverage float64 `json:"coverage"`
		} `json:"ring"`
		Shards []struct {
			URL           string  `json:"url"`
			Up            bool    `json:"up"`
			SnapshotCount int     `json:"snapshot_count"`
			ArcFraction   float64 `json:"arc_fraction"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("healthz json: %v: %s", err, body)
	}
	if doc.Status != "degraded" || doc.Ring.Members != 3 || doc.Ring.Live != 2 {
		t.Errorf("status %q members %d live %d, want degraded/3/2", doc.Status, doc.Ring.Members, doc.Ring.Live)
	}
	if doc.Ring.Coverage <= 0 || doc.Ring.Coverage >= 1 {
		t.Errorf("coverage %v with one dead shard, want in (0,1)", doc.Ring.Coverage)
	}
	var arcSum float64
	wantSnaps := map[string]int{b1.URL: 1, b2.URL: 2, dead.URL: 0}
	for _, sh := range doc.Shards {
		arcSum += sh.ArcFraction
		if sh.URL == dead.URL && sh.Up {
			t.Errorf("dead shard %s reported up", sh.URL)
		}
		if sh.Up && sh.SnapshotCount != wantSnaps[sh.URL] {
			t.Errorf("shard %s snapshot_count %d, want %d", sh.URL, sh.SnapshotCount, wantSnaps[sh.URL])
		}
	}
	if arcSum < 0.999 || arcSum > 1.001 {
		t.Errorf("arc fractions sum to %v, want 1", arcSum)
	}

	// All shards down: 503.
	for _, u := range []string{b1.URL, b2.URL} {
		p.health.MarkDown(u, errors.New("test: forced down"))
	}
	if code, _, _ := get(t, ts, "/v1/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("fleet fully down: status %d, want 503", code)
	}
}

// --- fleet aggregation --------------------------------------------------------

func TestProxySeedsUnion(t *testing.T) {
	b1, b2 := memBackend(t, 1, 2), memBackend(t, 3)
	_, ts := newTestProxy(t, 0, b1.URL, b2.URL)
	code, body, _ := get(t, ts, "/v1/seeds")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var doc struct {
		Stored []int64                    `json:"stored"`
		Shards map[string]json.RawMessage `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 2, 3}; len(doc.Stored) != 3 || doc.Stored[0] != want[0] || doc.Stored[2] != want[2] {
		t.Errorf("stored union = %v, want %v", doc.Stored, want)
	}
	if len(doc.Shards) != 2 {
		t.Errorf("per-shard views for %d backends, want 2", len(doc.Shards))
	}
}

func TestProxyStatsMerge(t *testing.T) {
	b1, b2 := memBackend(t, 1, 2), memBackend(t, 1, 2)
	p, ts := newTestProxy(t, 0, b1.URL, b2.URL)
	// One routed request per seed so both shards observe a funnel render.
	for seed := int64(1); seed <= 2; seed++ {
		if code, body, _ := get(t, ts, fmt.Sprintf("/v1/seeds/%d/artifacts/funnel", seed)); code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, code, body)
		}
	}
	code, body, _ := get(t, ts, "/v1/debug/stats")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var doc struct {
		Merged serve.StatsDocument            `json:"merged"`
		Shards map[string]serve.StatsDocument `json:"shards"`
		Proxy  struct {
			Stages map[string]serve.StatEntry `json:"stages"`
		} `json:"proxy"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	// Depending on which shard owns which seed, each backend saw 1 or 2
	// funnel requests; the merged view must add up to exactly 2.
	if e := doc.Merged.Experiments["funnel"]; e.Count != 2 {
		t.Errorf("merged funnel count %d, want 2 (shards: %v)", e.Count, doc.Shards)
	}
	if e := doc.Proxy.Stages["proxy.route"]; e.Count < 2 {
		t.Errorf("proxy.route stage count %d, want >= 2", e.Count)
	}
	_ = p
}

func TestProxyMetricsExposition(t *testing.T) {
	b := memBackend(t, 1)
	_, ts := newTestProxy(t, 0, b.URL)
	if code, body, _ := get(t, ts, "/v1/seeds/1/artifacts/funnel"); code != http.StatusOK {
		t.Fatalf("routed request: status %d: %s", code, body)
	}
	_, body, _ := get(t, ts, "/v1/metrics")
	for _, family := range []string{
		"schemaevo_proxy_requests_total",
		"schemaevo_proxy_backend_requests_total{backend=",
		"schemaevo_proxy_hedges_total",
		"schemaevo_proxy_failovers_total",
		"schemaevo_proxy_ring_members 1",
		"schemaevo_proxy_ring_coverage",
		"schemaevo_proxy_backend_up{backend=",
		`schemaevo_stage_duration_seconds_bucket{stage="proxy.route"`,
	} {
		if !strings.Contains(body, family) {
			t.Errorf("exposition missing %q", family)
		}
	}
}

// --- membership admin ---------------------------------------------------------

func TestProxyAdminMembership(t *testing.T) {
	b1, b2 := memBackend(t, 1), memBackend(t, 2)
	p, ts := newTestProxy(t, 0, b1.URL)

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/admin/backends", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	code, body := post(fmt.Sprintf(`{"op":"add","url":%q}`, b2.URL))
	var res struct {
		Changed bool     `json:"changed"`
		Members []string `json:"members"`
		Version int64    `json:"version"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil || code != http.StatusOK {
		t.Fatalf("add: status %d body %q", code, body)
	}
	if !res.Changed || len(res.Members) != 2 || res.Version != 2 {
		t.Errorf("add: changed=%v members=%v version=%d", res.Changed, res.Members, res.Version)
	}
	if !p.health.Up(b2.URL) {
		t.Error("joined backend not tracked as up")
	}

	// Idempotent re-add: no version bump.
	if _, body := post(fmt.Sprintf(`{"op":"add","url":%q}`, b2.URL)); !strings.Contains(body, `"changed":false`) {
		t.Errorf("re-add reported a change: %s", body)
	}

	if code, body := post(fmt.Sprintf(`{"op":"remove","url":%q}`, b1.URL)); code != http.StatusOK || !strings.Contains(body, `"changed":true`) {
		t.Errorf("remove: status %d body %q", code, body)
	}
	if _, ok := p.health.State(b1.URL); ok {
		t.Error("removed backend still tracked")
	}

	if code, _ := post(`{"op":"frobnicate","url":"http://x"}`); code != http.StatusBadRequest {
		t.Errorf("bad op accepted: %d", code)
	}
	if code, _ := post(`not json`); code != http.StatusBadRequest {
		t.Errorf("bad body accepted: %d", code)
	}

	// Routing still works after the swap: seed 2 lives on b2.
	if code, body, hdr := get(t, ts, "/v1/seeds/2/artifacts/funnel"); code != http.StatusOK || hdr.Get("X-Schemaevo-Backend") != b2.URL {
		t.Errorf("post-swap routing: status %d backend %q body %q", code, hdr.Get("X-Schemaevo-Backend"), body)
	}
}

// --- golden integration: 3 backends, one shared store -------------------------

// TestProxyGoldenThreeBackends is the headline acceptance test: a 3-backend
// fleet behind the proxy serves every seed-1 golden artifact byte-identical
// to the single-daemon golden set, with zero pipeline runs on the backends.
func TestProxyGoldenThreeBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	b1, b2, b3 := warmBackend(t), warmBackend(t), warmBackend(t)
	p, ts := newTestProxy(t, 250*time.Millisecond, b1.URL, b2.URL, b3.URL)

	owner, _ := p.table.Ring().Route(1)
	for _, key := range study.ExperimentKeys() {
		want := readGolden(t, key)
		code, body, hdr := get(t, ts, "/v1/seeds/1/artifacts/"+key)
		if code != http.StatusOK {
			t.Fatalf("artifact %s: status %d: %.120s", key, code, body)
		}
		if body != string(want) {
			t.Errorf("artifact %s drifted from the golden bytes through the proxy", key)
		}
		if got := hdr.Get("X-Schemaevo-Backend"); got != owner {
			t.Errorf("artifact %s served by %s, seed-1 owner is %s", key, got, owner)
		}
	}
	// Exports and figures relay through the routed path too.
	for _, path := range []string{
		"/v1/seeds/1/artifacts/export.csv",
		"/v1/seeds/1/artifacts/export.json",
		"/v1/seeds/1/artifacts/report.html",
	} {
		if code, body, _ := get(t, ts, path); code != http.StatusOK || len(body) == 0 {
			t.Errorf("%s: status %d, %d bytes", path, code, len(body))
		}
	}
	st, _ := realStudy()
	for name := range st.SVGFigures() {
		if code, body, _ := get(t, ts, "/v1/seeds/1/figures/"+name); code != http.StatusOK || !strings.Contains(body, "<svg") {
			t.Errorf("figure %s did not relay: status %d", name, code)
		}
	}
}

// TestProxyFailoverStoppedBackend: with the seed-1 owner hard-stopped, the
// proxy fails over to the ring successor and the full golden set still
// serves byte-identically.
func TestProxyFailoverStoppedBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	b1, b2, b3 := warmBackend(t), warmBackend(t), warmBackend(t)
	p, ts := newTestProxy(t, 250*time.Millisecond, b1.URL, b2.URL, b3.URL)

	owner, _ := p.table.Ring().Route(1)
	for _, b := range []*httptest.Server{b1, b2, b3} {
		if b.URL == owner {
			b.CloseClientConnections()
			b.Close()
		}
	}

	for _, key := range study.ExperimentKeys() {
		want := readGolden(t, key)
		code, body, hdr := get(t, ts, "/v1/seeds/1/artifacts/"+key)
		if code != http.StatusOK {
			t.Fatalf("artifact %s with owner stopped: status %d: %.120s", key, code, body)
		}
		if body != string(want) {
			t.Errorf("artifact %s drifted from the golden bytes after failover", key)
		}
		if got := hdr.Get("X-Schemaevo-Backend"); got == owner {
			t.Errorf("artifact %s reportedly served by the stopped backend %s", key, got)
		}
	}

	// The first transport error marked the owner down; health reflects it.
	if p.health.Up(owner) {
		t.Error("stopped owner still marked up after request-path failures")
	}
	code, body, _ := get(t, ts, "/v1/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"degraded"`) {
		t.Errorf("healthz after stop: status %d body %.200s", code, body)
	}
	// And the exposition shows the rerouted traffic.
	_, metrics, _ := get(t, ts, "/v1/metrics")
	if !strings.Contains(metrics, "schemaevo_proxy_failovers_total") {
		t.Error("failover counter family missing from exposition")
	}
}

// TestProxyHedgeStalledBackend: the seed-1 owner stays up but stalls; the
// hedge fires after the delay, the ring successor answers, and every golden
// artifact stays byte-identical. The winning responses carry the hedged
// provenance header.
func TestProxyHedgeStalledBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	dir, err := populatedStore()
	if err != nil {
		t.Fatalf("populating shared store: %v", err)
	}
	newStalled := func() (*httptest.Server, *stallable) {
		d, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		w := &stallable{
			inner: serve.New(serve.Options{Store: d, Runner: refusingRunner(t)}),
			delay: 400 * time.Millisecond,
		}
		ts := httptest.NewServer(w)
		t.Cleanup(ts.Close)
		return ts, w
	}
	b1, w1 := newStalled()
	b2, w2 := newStalled()
	b3, w3 := newStalled()
	p, ts := newTestProxy(t, 25*time.Millisecond, b1.URL, b2.URL, b3.URL)

	owner, _ := p.table.Ring().Route(1)
	wrappers := map[string]*stallable{b1.URL: w1, b2.URL: w2, b3.URL: w3}
	wrappers[owner].stall.Store(true)

	hedgedWins := 0
	for _, key := range study.ExperimentKeys() {
		want := readGolden(t, key)
		code, body, hdr := get(t, ts, "/v1/seeds/1/artifacts/"+key)
		if code != http.StatusOK {
			t.Fatalf("artifact %s with owner stalled: status %d: %.120s", key, code, body)
		}
		if body != string(want) {
			t.Errorf("hedged artifact %s is not byte-identical to the golden set", key)
		}
		if hdr.Get("X-Schemaevo-Hedged") != "" && hdr.Get("X-Schemaevo-Backend") != owner {
			hedgedWins++
		}
	}
	// A 400ms stall against a 25ms hedge delay: effectively every request
	// should have been won by the hedge. Leave slack for scheduler noise.
	if hedgedWins < len(study.ExperimentKeys())/2 {
		t.Errorf("only %d/%d requests won by the hedge successor", hedgedWins, len(study.ExperimentKeys()))
	}
	_, metrics, _ := get(t, ts, "/v1/metrics")
	if !strings.Contains(metrics, "schemaevo_proxy_hedges_total{backend=") {
		t.Error("hedge counter family missing from exposition")
	}
}

// TestProxyTraceMerge: /v1/debug/trace through the proxy returns the
// backend's Chrome trace with the proxy's own spans merged in as pid 2.
func TestProxyTraceMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline-backed trace")
	}
	m := store.NewMem()
	backendSrv := serve.New(serve.Options{
		Store: m,
		// The trace endpoint runs the Runner under a collecting tracer, so it
		// must be the real instrumented pipeline — a memoized study would
		// leave the backend's side of the merged trace empty.
		Runner: serve.RunnerFunc(func(ctx context.Context, seed int64) (*study.Study, error) {
			return study.NewContext(ctx, seed)
		}),
	})
	b := httptest.NewServer(backendSrv)
	defer b.Close()
	_, ts := newTestProxy(t, 0, b.URL)

	code, body, _ := get(t, ts, "/v1/debug/trace?seed=1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %.200s", code, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace json: %v", err)
	}
	var sawBackend, sawRoute bool
	for _, ev := range doc.TraceEvents {
		if ev.PID != 2 {
			sawBackend = true
		}
		if ev.Name == "proxy.route" && ev.Cat == "proxy" && ev.PID == 2 {
			sawRoute = true
		}
	}
	if !sawBackend {
		t.Error("merged trace lost the backend's pipeline spans")
	}
	if !sawRoute {
		t.Error("merged trace is missing the proxy.route span on pid 2")
	}
}

// --- warm fan-out benchmark ---------------------------------------------------

// BenchmarkProxyWarmFanout pins the proxy's overhead on a warm hit: one
// loopback hop plus routing, compared in-run against the direct backend
// fetch. The acceptance bar is proxied < 2x direct.
func BenchmarkProxyWarmFanout(b *testing.B) {
	dir, err := populatedStore()
	if err != nil {
		b.Fatalf("populating shared store: %v", err)
	}
	backends := make([]*httptest.Server, 3)
	for i := range backends {
		d, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		backends[i] = httptest.NewServer(serve.New(serve.Options{Store: d, Runner: refusingRunner(b)}))
		defer backends[i].Close()
	}
	p, err := newProxy(proxyOptions{
		Backends:   []string{backends[0].URL, backends[1].URL, backends[2].URL},
		HedgeDelay: 250 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()

	const path = "/v1/seeds/1/artifacts/export.json"
	fetch := func(base string) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	// Direct baseline: the same warm hit against the seed-1 owner, measured
	// in-run so both numbers share machine conditions.
	owner, _ := p.table.Ring().Route(1)
	if err := fetch(owner); err != nil { // warm the owner's memo
		b.Fatal(err)
	}
	const directProbes = 50
	directStart := time.Now()
	for i := 0; i < directProbes; i++ {
		if err := fetch(owner); err != nil {
			b.Fatal(err)
		}
	}
	direct := time.Since(directStart) / directProbes

	if err := fetch(ts.URL); err != nil { // warm the proxied path
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fetch(ts.URL); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	proxied := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(direct.Nanoseconds()), "direct-ns")
	b.ReportMetric(float64(proxied)/float64(direct), "proxy/direct")
}

// --- hedged duplicate byte-identity (cheap variant) ---------------------------

// TestHedgedDuplicateBytesIdentical: when both the original and the hedge
// answer, whichever wins must produce the same bytes — both legs read the
// same store. This cheap variant uses fake snapshots; the golden variant is
// TestProxyHedgeStalledBackend.
func TestHedgedDuplicateBytesIdentical(t *testing.T) {
	m := store.NewMem()
	if err := m.Put(context.Background(), 1, fakeSnap(1)); err != nil {
		t.Fatal(err)
	}
	mkBackend := func() (*httptest.Server, *stallable) {
		w := &stallable{
			inner: serve.New(serve.Options{
				Store: m,
				Runner: serve.RunnerFunc(func(context.Context, int64) (*study.Study, error) {
					return nil, errors.New("no pipeline in this test")
				}),
			}),
			delay: 200 * time.Millisecond,
		}
		ts := httptest.NewServer(w)
		t.Cleanup(ts.Close)
		return ts, w
	}
	b1, w1 := mkBackend()
	b2, w2 := mkBackend()
	p, ts := newTestProxy(t, 10*time.Millisecond, b1.URL, b2.URL)

	owner, _ := p.table.Ring().Route(1)
	wrappers := map[string]*stallable{b1.URL: w1, b2.URL: w2}
	wrappers[owner].stall.Store(true)

	var bodies [][]byte
	for i := 0; i < 3; i++ {
		code, body, _ := get(t, ts, "/v1/seeds/1/artifacts/funnel")
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		bodies = append(bodies, []byte(body))
	}
	// Now un-stall: direct answers must be identical to the hedged ones.
	wrappers[owner].stall.Store(false)
	code, direct, _ := get(t, ts, "/v1/seeds/1/artifacts/funnel")
	if code != http.StatusOK {
		t.Fatalf("direct: status %d", code)
	}
	for i, hedged := range bodies {
		if !bytes.Equal(hedged, []byte(direct)) {
			t.Errorf("hedged response %d differs from the direct bytes", i)
		}
	}
}
