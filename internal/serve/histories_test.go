package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/ingest"
	"github.com/schemaevo/schemaevo/internal/store"
)

// historyUpload renders a small JSON DDL history whose final column set
// depends on n, so different n values yield different content addresses.
func historyUpload(n int) []byte {
	versions := []string{
		`CREATE TABLE t (a INT, b INT);`,
		`CREATE TABLE t (a INT, b INT, c INT);`,
		fmt.Sprintf(`CREATE TABLE t (a INT, c INT, extra%d INT);`, n),
	}
	doc := map[string]any{"project": "uptest", "versions": []map[string]string{}}
	vs := doc["versions"].([]map[string]string)
	for _, sql := range versions {
		vs = append(vs, map[string]string{"sql": sql})
	}
	doc["versions"] = vs
	b, _ := json.Marshal(doc)
	return b
}

func postHistory(t *testing.T, ts *httptest.Server, body []byte, contentType string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/histories", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/histories: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read ingest response: %v", err)
	}
	return resp.StatusCode, string(b)
}

type ingestReply struct {
	Resource      string          `json:"resource"`
	ID            string          `json:"id"`
	Created       bool            `json:"created"`
	Artifacts     []string        `json:"artifacts"`
	Profile       json.RawMessage `json:"profile"`
	Compatibility json.RawMessage `json:"compatibility"`
}

func TestIngestEndpoint(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := historyUpload(0)

	code, raw := postHistory(t, ts, body, "application/json")
	if code != http.StatusCreated {
		t.Fatalf("first POST: status %d: %s", code, raw)
	}
	var first ingestReply
	if err := json.Unmarshal([]byte(raw), &first); err != nil {
		t.Fatalf("bad ingest response: %v", err)
	}
	if first.Resource != "history" || !first.Created || !ingest.ValidID(first.ID) {
		t.Fatalf("response = %+v", first)
	}
	if len(first.Artifacts) != 4 {
		t.Errorf("artifacts %v", first.Artifacts)
	}
	var prof struct {
		Taxon         string `json:"taxon_short"`
		Compatibility string `json:"compatibility"`
		Versions      int    `json:"versions"`
	}
	if err := json.Unmarshal(first.Profile, &prof); err != nil {
		t.Fatalf("embedded profile: %v", err)
	}
	if prof.Versions != 3 || prof.Taxon == "" || prof.Compatibility == "" {
		t.Errorf("profile = %+v", prof)
	}

	t.Run("re-upload deduplicates", func(t *testing.T) {
		code, raw := postHistory(t, ts, body, "application/json")
		if code != http.StatusOK {
			t.Fatalf("re-POST: status %d: %s", code, raw)
		}
		var second ingestReply
		if err := json.Unmarshal([]byte(raw), &second); err != nil {
			t.Fatal(err)
		}
		if second.Created {
			t.Error("re-upload claims created=true")
		}
		if second.ID != first.ID {
			t.Errorf("re-upload id %s != %s", second.ID, first.ID)
		}
		if !bytes.Equal(second.Profile, first.Profile) {
			t.Error("re-upload profile differs")
		}
		m := srv.Metrics().Snapshot()
		if m.IngestAccepted != 2 || m.IngestDedupHits != 1 {
			t.Errorf("accepted=%d dedup=%d, want 2/1", m.IngestAccepted, m.IngestDedupHits)
		}
	})

	t.Run("artifacts serve and match", func(t *testing.T) {
		code, got, hdr := get(t, ts, "/v1/histories/"+first.ID+"/artifacts/profile.json")
		if code != http.StatusOK {
			t.Fatalf("profile artifact: %d: %s", code, got)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type %q", ct)
		}
		// The POST response embeds the profile compacted (encoding/json
		// compacts RawMessage); the artifact is the indented original. They
		// must agree on content.
		var artCompact bytes.Buffer
		if err := json.Compact(&artCompact, []byte(got)); err != nil {
			t.Fatal(err)
		}
		if artCompact.String() != string(first.Profile) {
			t.Error("artifact differs from the POST-embedded profile")
		}
		code, csv, hdr := get(t, ts, "/v1/histories/"+first.ID+"/artifacts/heartbeat.csv")
		if code != http.StatusOK || !strings.HasPrefix(csv, "transition,when,") {
			t.Errorf("heartbeat: %d %.60s", code, csv)
		}
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Errorf("heartbeat content type %q", ct)
		}
	})

	t.Run("resource descriptor", func(t *testing.T) {
		code, raw, _ := get(t, ts, "/v1/histories/"+first.ID)
		if code != http.StatusOK {
			t.Fatalf("descriptor: %d: %s", code, raw)
		}
		var desc struct {
			Resource string `json:"resource"`
			ID       string `json:"id"`
			Cached   bool   `json:"cached"`
			Dialect  string `json:"dialect"`
		}
		if err := json.Unmarshal([]byte(raw), &desc); err != nil {
			t.Fatal(err)
		}
		if desc.Resource != "history" || desc.ID != first.ID || !desc.Cached {
			t.Errorf("descriptor = %+v", desc)
		}
		if desc.Dialect != "mysql" {
			t.Errorf("descriptor dialect = %q, want mysql (auto-detected at ingest)", desc.Dialect)
		}
	})

	t.Run("listing includes the history", func(t *testing.T) {
		code, raw, _ := get(t, ts, "/v1/histories")
		if code != http.StatusOK {
			t.Fatalf("list: %d", code)
		}
		var list struct {
			Cached []string `json:"cached"`
		}
		if err := json.Unmarshal([]byte(raw), &list); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, id := range list.Cached {
			found = found || id == first.ID
		}
		if !found {
			t.Errorf("cached listing %v misses %s", list.Cached, first.ID)
		}
	})

	t.Run("settled events stream ends with result", func(t *testing.T) {
		code, raw, hdr := get(t, ts, "/v1/histories/"+first.ID+"/events")
		if code != http.StatusOK {
			t.Fatalf("events: %d: %s", code, raw)
		}
		if ct := hdr.Get("Content-Type"); ct != "text/event-stream" {
			t.Errorf("content type %q", ct)
		}
		if !strings.Contains(raw, "event: result") || !strings.Contains(raw, `"history":"`+first.ID+`"`) {
			t.Errorf("stream: %.200s", raw)
		}
	})

	t.Run("error envelopes", func(t *testing.T) {
		unknown := strings.Repeat("ab", 32)
		code, raw, _ := get(t, ts, "/v1/histories/"+unknown+"/artifacts/profile.json")
		if code != http.StatusNotFound {
			t.Fatalf("unknown history: %d", code)
		}
		var env struct {
			Error    string `json:"error"`
			Code     int    `json:"code"`
			Resource string `json:"resource"`
			ID       string `json:"id"`
		}
		if err := json.Unmarshal([]byte(raw), &env); err != nil {
			t.Fatal(err)
		}
		if env.Resource != "history" || env.ID != unknown || env.Code != http.StatusNotFound {
			t.Errorf("envelope = %+v", env)
		}
		if code, _, _ := get(t, ts, "/v1/histories/not-hex/artifacts/profile.json"); code != http.StatusBadRequest {
			t.Errorf("malformed id: %d, want 400", code)
		}
		if code, _, _ := get(t, ts, "/v1/histories/"+first.ID+"/artifacts/nope"); code != http.StatusNotFound {
			t.Errorf("unknown artifact: %d, want 404", code)
		}
		if code, _, _ := get(t, ts, "/v1/histories/"+unknown+"/events"); code != http.StatusNotFound {
			t.Errorf("events for unknown history: %d, want 404", code)
		}
	})
}

func TestIngestConcurrentUploadsDedup(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := historyUpload(7)

	const n = 8
	codes := make([]int, n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/histories", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var rep ingestReply
			if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
				t.Errorf("POST %d: decode: %v", i, err)
				return
			}
			codes[i] = resp.StatusCode
			ids[i] = rep.ID
		}(i)
	}
	wg.Wait()

	created := 0
	for i := range codes {
		if codes[i] == http.StatusCreated {
			created++
		}
		if ids[i] != ids[0] {
			t.Errorf("upload %d got id %s, want %s", i, ids[i], ids[0])
		}
	}
	if created != 1 {
		t.Errorf("%d uploads answered 201, want exactly 1", created)
	}
	m := srv.Metrics().Snapshot()
	if m.IngestAccepted != n || m.IngestDedupHits != n-1 {
		t.Errorf("accepted=%d dedup=%d, want %d/%d", m.IngestAccepted, m.IngestDedupHits, n, n-1)
	}
}

func TestIngestRequestHardening(t *testing.T) {
	srv := New(Options{MaxUploadBytes: 256})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	t.Run("oversized upload gets 413", func(t *testing.T) {
		big := bytes.Repeat([]byte("x"), 512)
		code, raw := postHistory(t, ts, big, "application/json")
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d: %s", code, raw)
		}
		if !strings.Contains(raw, "256-byte limit") || !strings.Contains(raw, `"resource":"history"`) {
			t.Errorf("envelope: %s", raw)
		}
	})

	t.Run("unsupported media type gets 415", func(t *testing.T) {
		code, raw := postHistory(t, ts, []byte("CREATE TABLE t (a INT);"), "application/pdf")
		if code != http.StatusUnsupportedMediaType {
			t.Fatalf("status %d: %s", code, raw)
		}
		if !strings.Contains(raw, "application/sql") {
			t.Errorf("415 body should list supported media types: %s", raw)
		}
	})

	t.Run("undecodable body gets 400", func(t *testing.T) {
		code, _ := postHistory(t, ts, []byte("{not json"), "application/json")
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})

	t.Run("no usable versions gets 422", func(t *testing.T) {
		code, raw := postHistory(t, ts, []byte("-- comments only\n"), "application/sql")
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("status %d: %s", code, raw)
		}
	})

	m := srv.Metrics().Snapshot()
	if m.IngestRejected != 3 {
		t.Errorf("rejected=%d, want 3 (413 + 415 + 400; the 422 was accepted then failed)", m.IngestRejected)
	}
}

func TestIngestRoundTripAcrossRestart(t *testing.T) {
	hist := store.NewMem()
	srv := New(Options{HistoryStore: hist})
	ts := httptest.NewServer(srv)
	body := historyUpload(42)

	code, raw := postHistory(t, ts, body, "application/json")
	if code != http.StatusCreated {
		t.Fatalf("POST: %d: %s", code, raw)
	}
	var rep ingestReply
	if err := json.Unmarshal([]byte(raw), &rep); err != nil {
		t.Fatal(err)
	}
	srv.SyncStore()
	wantArts := map[string]string{}
	for _, key := range ingest.ArtifactKeys() {
		code, b, _ := get(t, ts, "/v1/histories/"+rep.ID+"/artifacts/"+key)
		if code != http.StatusOK {
			t.Fatalf("artifact %s: %d", key, code)
		}
		wantArts[key] = b
	}
	ts.Close()

	// "Restart": a fresh server on the same history store, no upload body.
	srv2 := New(Options{HistoryStore: hist})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	t.Run("stored listing survives", func(t *testing.T) {
		code, raw, _ := get(t, ts2, "/v1/histories")
		if code != http.StatusOK {
			t.Fatalf("list: %d", code)
		}
		var list struct {
			Stored []string `json:"stored"`
		}
		if err := json.Unmarshal([]byte(raw), &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Stored) != 1 || list.Stored[0] != rep.ID {
			t.Errorf("stored = %v, want [%s]", list.Stored, rep.ID)
		}
	})

	t.Run("artifacts byte-identical after restore", func(t *testing.T) {
		for _, key := range ingest.ArtifactKeys() {
			code, b, _ := get(t, ts2, "/v1/histories/"+rep.ID+"/artifacts/"+key)
			if code != http.StatusOK {
				t.Fatalf("artifact %s after restart: %d", key, code)
			}
			if b != wantArts[key] {
				t.Errorf("artifact %s differs across restart", key)
			}
		}
		m := srv2.Metrics().Snapshot()
		if m.StoreHits == 0 {
			t.Error("restore did not hit the history store")
		}
	})

	t.Run("re-upload after restart deduplicates", func(t *testing.T) {
		code, raw := postHistory(t, ts2, body, "application/json")
		if code != http.StatusOK {
			t.Fatalf("re-POST after restart: %d: %s", code, raw)
		}
		var again ingestReply
		if err := json.Unmarshal([]byte(raw), &again); err != nil {
			t.Fatal(err)
		}
		if again.Created || again.ID != rep.ID {
			t.Errorf("restart re-upload: created=%v id=%s", again.Created, again.ID)
		}
		if m := srv2.Metrics().Snapshot(); m.IngestDedupHits == 0 {
			t.Error("restart re-upload did not count as a dedup hit")
		}
	})
}

func TestHistoryPagination(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ids := map[string]bool{}
	for i := 0; i < 5; i++ {
		code, raw := postHistory(t, ts, historyUpload(100+i), "application/json")
		if code != http.StatusCreated {
			t.Fatalf("POST %d: %d: %s", i, code, raw)
		}
		var rep ingestReply
		if err := json.Unmarshal([]byte(raw), &rep); err != nil {
			t.Fatal(err)
		}
		ids[rep.ID] = true
	}

	var got []string
	cursor := ""
	pages := 0
	for {
		path := "/v1/histories?limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		code, raw, _ := get(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("page %d: %d: %s", pages, code, raw)
		}
		var page struct {
			Histories  []string `json:"histories"`
			NextCursor string   `json:"next_cursor"`
		}
		if err := json.Unmarshal([]byte(raw), &page); err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Histories...)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > 10 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(got) != len(ids) {
		t.Fatalf("paginated walk returned %d ids, want %d", len(got), len(ids))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("page walk out of order at %d: %s >= %s", i, got[i-1], got[i])
		}
	}
	for _, id := range got {
		if !ids[id] {
			t.Errorf("walk returned unknown id %s", id)
		}
	}

	t.Run("cursor is stable across inserts", func(t *testing.T) {
		code, raw, _ := get(t, ts, "/v1/histories?limit=2")
		if code != http.StatusOK {
			t.Fatal(code)
		}
		var page1 struct {
			Histories  []string `json:"histories"`
			NextCursor string   `json:"next_cursor"`
		}
		if err := json.Unmarshal([]byte(raw), &page1); err != nil {
			t.Fatal(err)
		}
		// A new history lands between page fetches; the cursor must still
		// resume strictly after page 1's last item.
		if code, _ := postHistory(t, ts, historyUpload(999), "application/json"); code != http.StatusCreated {
			t.Fatal("insert between pages failed")
		}
		code, raw, _ = get(t, ts, "/v1/histories?limit=2&cursor="+page1.NextCursor)
		if code != http.StatusOK {
			t.Fatal(code)
		}
		var page2 struct {
			Histories []string `json:"histories"`
		}
		if err := json.Unmarshal([]byte(raw), &page2); err != nil {
			t.Fatal(err)
		}
		if len(page2.Histories) == 0 || page2.Histories[0] <= page1.Histories[len(page1.Histories)-1] {
			t.Errorf("cursor resume broken: page1 %v, page2 %v", page1.Histories, page2.Histories)
		}
	})

	t.Run("malformed parameters get 400", func(t *testing.T) {
		if code, _, _ := get(t, ts, "/v1/histories?limit=0"); code != http.StatusBadRequest {
			t.Errorf("limit=0: %d", code)
		}
		if code, _, _ := get(t, ts, "/v1/histories?cursor=!!!"); code != http.StatusBadRequest {
			t.Errorf("bad cursor: %d", code)
		}
	})
}

func TestSeedsPagination(t *testing.T) {
	srv := New(Options{Runner: RunnerFunc(realRunner(t))})
	srv.render = sharedRender
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for seed := 1; seed <= 3; seed++ {
		if code, _, _ := get(t, ts, fmt.Sprintf("/v1/seeds/%d/artifacts/funnel", seed)); code != http.StatusOK {
			t.Fatalf("warm seed %d failed: %d", seed, code)
		}
	}

	code, raw, _ := get(t, ts, "/v1/seeds?limit=2")
	if code != http.StatusOK {
		t.Fatalf("page 1: %d: %s", code, raw)
	}
	var page1 struct {
		Seeds      []int64 `json:"seeds"`
		NextCursor string  `json:"next_cursor"`
	}
	if err := json.Unmarshal([]byte(raw), &page1); err != nil {
		t.Fatal(err)
	}
	if len(page1.Seeds) != 2 || page1.Seeds[0] != 1 || page1.Seeds[1] != 2 || page1.NextCursor == "" {
		t.Fatalf("page 1 = %+v", page1)
	}
	code, raw, _ = get(t, ts, "/v1/seeds?limit=2&cursor="+page1.NextCursor)
	if code != http.StatusOK {
		t.Fatal(code)
	}
	var page2 struct {
		Seeds      []int64 `json:"seeds"`
		NextCursor string  `json:"next_cursor"`
	}
	if err := json.Unmarshal([]byte(raw), &page2); err != nil {
		t.Fatal(err)
	}
	if len(page2.Seeds) != 1 || page2.Seeds[0] != 3 || page2.NextCursor != "" {
		t.Fatalf("page 2 = %+v", page2)
	}

	// Unpaginated keeps the pre-redesign shape.
	code, raw, _ = get(t, ts, "/v1/seeds")
	if code != http.StatusOK || !strings.Contains(raw, `"cached"`) {
		t.Errorf("unpaged /v1/seeds: %d %.80s", code, raw)
	}
}

// BenchmarkIngestWarm measures the deduplicated re-upload path: decode +
// content-address + memo hit, no pipeline run.
func BenchmarkIngestWarm(b *testing.B) {
	srv := New(Options{})
	body := historyUpload(0)
	rr := httptest.NewRecorder()
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/histories", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr.Body.Reset()
		srv.ServeHTTP(rr, req)
	}
	post() // the first upload runs the ingest; the loop times dedup hits
	if rr.Code != http.StatusCreated {
		b.Fatalf("first POST: %d: %s", rr.Code, rr.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// TestHistoryRestoreRejectsDamagedIdentity: a history snapshot restores
// only when its stored identity equals the requested id. An index entry
// whose id was blanked or mangled is a store miss — never a crash, and
// never a restore flight left wedged for the next request.
func TestHistoryRestoreRejectsDamagedIdentity(t *testing.T) {
	for _, stored := range []string{"", "abc"} {
		t.Run(fmt.Sprintf("id=%q", stored), func(t *testing.T) {
			dir, up := populatedHistoryStore(t)
			index := filepath.Join(dir, "index.json")
			raw, err := os.ReadFile(index)
			if err != nil {
				t.Fatal(err)
			}
			var idx map[string]any
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.UseNumber() // keep the int64 keys exact
			if err := dec.Decode(&idx); err != nil {
				t.Fatal(err)
			}
			idx["entries"].([]any)[0].(map[string]any)["id"] = stored
			if raw, err = json.Marshal(idx); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(index, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			srv := New(Options{HistoryStore: d, Timeout: time.Second})
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client := &http.Client{Timeout: 3 * time.Second}

			for i := 0; i < 2; i++ {
				start := time.Now()
				resp, err := client.Get(ts.URL + "/v1/histories/" + up.ID + "/artifacts/profile.json")
				if err != nil {
					t.Fatalf("GET %d: %v", i, err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if took := time.Since(start); took > 500*time.Millisecond {
					t.Errorf("GET %d took %v against a 1s deadline", i, took)
				}
				var env struct {
					Code     int    `json:"code"`
					Resource string `json:"resource"`
					ID       string `json:"id"`
				}
				if resp.StatusCode != http.StatusNotFound || json.Unmarshal(body, &env) != nil ||
					env.Code != http.StatusNotFound || env.Resource != "history" || env.ID != up.ID {
					t.Errorf("GET %d: status %d, body %s; want the JSON 404 envelope", i, resp.StatusCode, body)
				}
			}
			if s := srv.Metrics().Snapshot(); s.StoreMisses != 2 || s.StoreHits != 0 {
				t.Errorf("store misses = %d, hits = %d; want 2 and 0", s.StoreMisses, s.StoreHits)
			}
		})
	}
}
