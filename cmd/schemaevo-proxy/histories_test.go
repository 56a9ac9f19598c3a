package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/gitstore"
	"github.com/schemaevo/schemaevo/internal/ingest"
	"github.com/schemaevo/schemaevo/internal/serve"
	"github.com/schemaevo/schemaevo/internal/store"
)

// uploadBody renders a distinct small JSON history per n.
func uploadBody(n int) []byte {
	doc := map[string]any{
		"project": "proxytest",
		"versions": []map[string]string{
			{"sql": "CREATE TABLE t (a INT, b INT);"},
			{"sql": fmt.Sprintf("CREATE TABLE t (a INT, b INT, c%d INT);", n)},
		},
	}
	b, _ := json.Marshal(doc)
	return b
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.String()
}

// TestProxyIngestRoutesByContentAddress: a POST through the proxy lands on
// the ring owner of the upload's content address, the follow-up GETs route
// to the same shard, and artifacts are byte-identical whether fetched
// through the proxy or from the owning backend directly.
func TestProxyIngestRoutesByContentAddress(t *testing.T) {
	b1, b2, b3 := memBackend(t), memBackend(t), memBackend(t)
	p, ts := newTestProxy(t, 0, b1.URL, b2.URL, b3.URL)

	body := uploadBody(1)
	up, err := ingest.Prepare("application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	wantOwner, ok := p.table.Ring().Route(up.Key())
	if !ok {
		t.Fatal("empty ring")
	}

	resp, raw := postJSON(t, ts.URL+"/v1/histories", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST via proxy: %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Schemaevo-Backend"); got != wantOwner {
		t.Errorf("POST served by %s, want ring owner %s", got, wantOwner)
	}
	var rep struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	if err := json.Unmarshal([]byte(raw), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ID != up.ID || !rep.Created {
		t.Fatalf("reply = %+v, want created id %s", rep, up.ID)
	}

	t.Run("re-upload through the proxy deduplicates", func(t *testing.T) {
		resp, raw := postJSON(t, ts.URL+"/v1/histories", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("re-POST: %d: %s", resp.StatusCode, raw)
		}
		if strings.Contains(raw, `"created":true`) {
			t.Error("re-upload through the proxy was not deduplicated")
		}
	})

	t.Run("GET routes to the owner with identical bytes", func(t *testing.T) {
		path := "/v1/histories/" + rep.ID + "/artifacts/profile.json"
		code, viaProxy, hdr := get(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("artifact via proxy: %d: %s", code, viaProxy)
		}
		if got := hdr.Get("X-Schemaevo-Backend"); got != wantOwner {
			t.Errorf("artifact served by %s, want owner %s", got, wantOwner)
		}
		directResp, err := http.Get(wantOwner + path)
		if err != nil {
			t.Fatal(err)
		}
		defer directResp.Body.Close()
		var direct bytes.Buffer
		direct.ReadFrom(directResp.Body)
		if direct.String() != viaProxy {
			t.Error("artifact bytes differ between proxy and owning backend")
		}
	})

	t.Run("resource descriptor routes", func(t *testing.T) {
		code, raw, _ := get(t, ts, "/v1/histories/"+rep.ID)
		if code != http.StatusOK || !strings.Contains(raw, rep.ID) {
			t.Errorf("descriptor via proxy: %d %.120s", code, raw)
		}
	})

	t.Run("settled events relay with shard provenance", func(t *testing.T) {
		code, raw, hdr := get(t, ts, "/v1/histories/"+rep.ID+"/events")
		if code != http.StatusOK {
			t.Fatalf("events via proxy: %d: %s", code, raw)
		}
		if ct := hdr.Get("Content-Type"); ct != "text/event-stream" {
			t.Errorf("content type %q", ct)
		}
		if !strings.Contains(raw, "event: result") || !strings.Contains(raw, `"shard":`) {
			t.Errorf("relayed stream: %.200s", raw)
		}
	})

	t.Run("fleet listing unions shards", func(t *testing.T) {
		code, raw, _ := get(t, ts, "/v1/histories")
		if code != http.StatusOK {
			t.Fatalf("list via proxy: %d", code)
		}
		var list struct {
			Cached []string                  `json:"cached"`
			Shards map[string]map[string]any `json:"shards"`
		}
		if err := json.Unmarshal([]byte(raw), &list); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, id := range list.Cached {
			found = found || id == rep.ID
		}
		if !found {
			t.Errorf("fleet listing %v misses %s", list.Cached, rep.ID)
		}
		if len(list.Shards) != 3 {
			t.Errorf("%d shard views, want 3", len(list.Shards))
		}
	})
}

func TestProxyHistoriesPagination(t *testing.T) {
	b1, b2 := memBackend(t), memBackend(t)
	_, ts := newTestProxy(t, 0, b1.URL, b2.URL)

	ids := map[string]bool{}
	for i := 0; i < 4; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/histories", uploadBody(10+i))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST %d: %d: %s", i, resp.StatusCode, raw)
		}
		var rep struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(raw), &rep); err != nil {
			t.Fatal(err)
		}
		ids[rep.ID] = true
	}

	var walked []string
	cursor := ""
	for {
		path := "/v1/histories?limit=3"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		code, raw, _ := get(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("page: %d: %s", code, raw)
		}
		var page struct {
			Histories  []string `json:"histories"`
			NextCursor string   `json:"next_cursor"`
		}
		if err := json.Unmarshal([]byte(raw), &page); err != nil {
			t.Fatal(err)
		}
		walked = append(walked, page.Histories...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if len(walked) > 10 {
			t.Fatal("proxy pagination did not terminate")
		}
	}
	if len(walked) != len(ids) {
		t.Fatalf("walk returned %d ids, want %d (uploads spread across shards)", len(walked), len(ids))
	}
	for _, id := range walked {
		if !ids[id] {
			t.Errorf("walk returned unknown id %s", id)
		}
	}
}

func TestProxySeedsPagination(t *testing.T) {
	b1, b2 := memBackend(t, 1, 2), memBackend(t, 2, 3)
	_, ts := newTestProxy(t, 0, b1.URL, b2.URL)

	code, raw, _ := get(t, ts, "/v1/seeds?limit=2")
	if code != http.StatusOK {
		t.Fatalf("page 1: %d: %s", code, raw)
	}
	var page struct {
		Seeds      []int64 `json:"seeds"`
		NextCursor string  `json:"next_cursor"`
	}
	if err := json.Unmarshal([]byte(raw), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Seeds) != 2 || page.Seeds[0] != 1 || page.Seeds[1] != 2 || page.NextCursor == "" {
		t.Fatalf("page 1 = %+v, want merged [1 2] + cursor", page)
	}
	code, raw, _ = get(t, ts, "/v1/seeds?limit=2&cursor="+page.NextCursor)
	if code != http.StatusOK {
		t.Fatalf("page 2: %d: %s", code, raw)
	}
	if err := json.Unmarshal([]byte(raw), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Seeds) != 1 || page.Seeds[0] != 3 || page.NextCursor != "" {
		t.Fatalf("page 2 = %+v, want [3] + exhausted", page)
	}

	code, raw, _ = get(t, ts, "/v1/seeds")
	if code != http.StatusOK || !strings.Contains(raw, `"stored"`) {
		t.Errorf("unpaged listing changed shape: %d %.120s", code, raw)
	}
}

func TestProxyIngestEdgeHardening(t *testing.T) {
	b := memBackend(t)
	p, err := newProxy(proxyOptions{Backends: []string{b.URL}, MaxUploadBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()

	t.Run("oversized upload rejected at the edge", func(t *testing.T) {
		resp, raw := postJSON(t, ts.URL+"/v1/histories", bytes.Repeat([]byte("y"), 512))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		if !strings.Contains(raw, `"resource":"history"`) {
			t.Errorf("envelope: %s", raw)
		}
	})

	t.Run("unsupported media rejected at the edge", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/histories", "image/png", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("status %d, want 415", resp.StatusCode)
		}
	})

	t.Run("malformed id rejected at the edge", func(t *testing.T) {
		code, raw, _ := get(t, ts, "/v1/histories/zz/artifacts/profile.json")
		if code != http.StatusBadRequest || !strings.Contains(raw, `"resource":"history"`) {
			t.Errorf("status %d: %s", code, raw)
		}
	})

	t.Run("undecodable body forwarded for the authoritative error", func(t *testing.T) {
		resp, raw := postJSON(t, ts.URL+"/v1/histories", []byte("{nope"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		if resp.Header.Get("X-Schemaevo-Backend") == "" {
			t.Error("error did not come from a backend")
		}
	})
}

// TestProxyRejectsForeignCursor: a cursor whose payload is not an id of the
// listed kind is malformed — the proxy answers 400 before asking any
// backend for its listing.
func TestProxyRejectsForeignCursor(t *testing.T) {
	var listings atomic.Int64
	daemon := serve.New(serve.Options{Store: store.NewMem()})
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/seeds" || r.URL.Path == "/v1/histories" {
			listings.Add(1)
		}
		daemon.ServeHTTP(w, r)
	}))
	defer b.Close()
	_, ts := newTestProxy(t, 0, b.URL)

	cursor := func(payload string) string { return base64.RawURLEncoding.EncodeToString([]byte(payload)) }
	for _, path := range []string{
		"/v1/seeds?limit=2&cursor=" + cursor("v1:zzz"),
		"/v1/histories?cursor=" + cursor("v1:42"),
	} {
		code, raw, _ := get(t, ts, path)
		if code != http.StatusBadRequest || !strings.Contains(raw, "malformed cursor") {
			t.Errorf("%s: status %d: %s", path, code, raw)
		}
	}
	if n := listings.Load(); n != 0 {
		t.Errorf("%d backend listings fanned out for malformed cursors, want 0", n)
	}
}

// TestGitRefUploadRejected: a JSON upload naming a repository path
// ({"repo", "path"}) would have the daemon — or the proxy, which prepares
// uploads itself — read a repository on its own host and serve its
// contents back. Both answer 400 and no history is created.
func TestGitRefUploadRejected(t *testing.T) {
	dir := t.TempDir()
	repo, err := gitstore.Init(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := gitstore.NewWorktree(repo, "master")
	w.Set("schema.sql", []byte("CREATE TABLE secret (a INT);"))
	if _, err := w.Commit("v0", gitstore.Signature{Name: "d", Email: "d@e", When: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)}); err != nil {
		t.Fatal(err)
	}
	if _, err := gitstore.Open(dir); err != nil {
		t.Fatalf("fixture is not a readable repository: %v", err)
	}
	body, err := json.Marshal(map[string]string{"project": "p", "repo": dir, "path": "schema.sql"})
	if err != nil {
		t.Fatal(err)
	}

	b := memBackend(t)
	_, ts := newTestProxy(t, 0, b.URL)
	for _, target := range []*httptest.Server{b, ts} {
		resp, raw := postJSON(t, target.URL+"/v1/histories", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400: %s", target.URL, resp.StatusCode, raw)
		}
	}
	for _, target := range []*httptest.Server{b, ts} {
		code, raw, _ := get(t, target, "/v1/histories")
		var list struct {
			Cached []string `json:"cached"`
			Stored []string `json:"stored"`
		}
		if err := json.Unmarshal([]byte(raw), &list); code != http.StatusOK || err != nil {
			t.Fatalf("GET %s/v1/histories: %d %v: %s", target.URL, code, err, raw)
		}
		if len(list.Cached)+len(list.Stored) != 0 {
			t.Errorf("%s lists histories after a rejected upload: %s", target.URL, raw)
		}
	}
}
