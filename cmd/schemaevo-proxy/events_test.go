package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/serve"
	"github.com/schemaevo/schemaevo/internal/study"
)

// --- frame plumbing unit tests -----------------------------------------------

func TestReadFrameParsesFields(t *testing.T) {
	br := bufio.NewReader(strings.NewReader(
		"id: 1:7\nevent: stage\ndata: {\"seed\":1}\n\nevent: result\ndata: {}\n\n"))
	f, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.id != "1:7" || f.event != "stage" || len(f.lines) != 3 {
		t.Errorf("frame = %+v", f)
	}
	f, err = readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.event != "result" {
		t.Errorf("second frame = %+v", f)
	}
}

func TestReadFrameTruncatedStream(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("event: stage\ndata: {\"seed\":1}\n"))
	if _, err := readFrame(br); err == nil {
		t.Error("truncated frame (no blank terminator) parsed without error")
	}
}

func TestInjectShard(t *testing.T) {
	cases := []struct{ in, want string }{
		{`data: {"seed":1,"seq":2}`, `data: {"shard":"http://b1","seed":1,"seq":2}`},
		{`data: {}`, `data: {"shard":"http://b1"}`},
		{`data: not json`, `data: not json`},
		{`id: 1:2`, `id: 1:2`},
	}
	for _, c := range cases {
		got := injectShard(sseFrame{lines: []string{c.in}}, "http://b1")
		if got.lines[0] != c.want {
			t.Errorf("injectShard(%q) = %q, want %q", c.in, got.lines[0], c.want)
		}
	}
}

func TestIsEventStreamPath(t *testing.T) {
	for path, want := range map[string]bool{
		"/v1/seeds/1/events":         true,
		"/v1/debug/events":           true,
		"/v1/seeds/1/artifacts/x":    false,
		"/v1/metrics":                false,
		"/v1/seeds/1/events/extra":   false,
		"/v1/seeds/99/nested/events": true, // suffix rule is deliberately loose
	} {
		if got := serve.IsEventStreamPath(path); got != want {
			t.Errorf("serve.IsEventStreamPath(%q) = %v, want %v", path, got, want)
		}
	}
}

// --- scripted-backend relay tests --------------------------------------------

// sseScript serves a scripted seed event stream: the first stream contacted
// across the fleet emits seqs 1..cut and drops the connection without a
// result; every later stream must present Last-Event-ID "<seed>:<cut>" and
// then serves cut+1..total plus the terminal result.
type sseScript struct {
	cut, total int
	firstDone  atomic.Bool
	badResume  atomic.Int32 // resumed requests with the wrong Last-Event-ID
}

func (s *sseScript) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/events") {
			http.NotFound(w, r)
			return
		}
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		if s.firstDone.CompareAndSwap(false, true) {
			for seq := 1; seq <= s.cut; seq++ {
				fmt.Fprintf(w, "id: 1:%d\nevent: stage\ndata: {\"seed\":1,\"seq\":%d}\n\n", seq, seq)
				fl.Flush()
			}
			panic(http.ErrAbortHandler) // die mid-stream, no result
		}
		if got := r.Header.Get("Last-Event-ID"); got != fmt.Sprintf("1:%d", s.cut) {
			s.badResume.Add(1)
		}
		for seq := s.cut + 1; seq <= s.total; seq++ {
			fmt.Fprintf(w, "id: 1:%d\nevent: stage\ndata: {\"seed\":1,\"seq\":%d}\n\n", seq, seq)
			fl.Flush()
		}
		fmt.Fprintf(w, "event: result\ndata: {\"seed\":1,\"status\":\"ok\"}\n\n")
		fl.Flush()
	}
}

// proxyStream GETs an SSE path through the proxy and returns the parsed
// frames up to (and including) the result event, if any arrives before EOF.
func proxyStream(t *testing.T, ts *httptest.Server, path string) []sseFrame {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var frames []sseFrame
	br := bufio.NewReader(resp.Body)
	for {
		f, err := readFrame(br)
		if err != nil {
			return frames
		}
		frames = append(frames, f)
		if f.event == "result" {
			return frames
		}
	}
}

// TestProxySeedEventsFailoverResume: the owner drops the stream mid-run; the
// proxy marks it down and resumes on the ring successor via Last-Event-ID.
// The watcher sees one gapless, duplicate-free stream whose shard provenance
// flips at the failover point.
func TestProxySeedEventsFailoverResume(t *testing.T) {
	script := &sseScript{cut: 5, total: 10}
	b1 := httptest.NewServer(script.handler())
	defer b1.Close()
	b2 := httptest.NewServer(script.handler())
	defer b2.Close()
	p, ts := newTestProxy(t, 0, b1.URL, b2.URL)

	frames := proxyStream(t, ts, "/v1/seeds/1/events")
	if len(frames) != 11 {
		t.Fatalf("relayed %d frames, want 10 stages + result: %+v", len(frames), frames)
	}
	if frames[10].event != "result" {
		t.Fatalf("final frame is %q, want result", frames[10].event)
	}
	owner, _ := p.table.Ring().Route(1)
	successor := b1.URL
	if owner == b1.URL {
		successor = b2.URL
	}
	for i := 0; i < 10; i++ {
		if want := fmt.Sprintf("1:%d", i+1); frames[i].id != want {
			t.Errorf("frame %d id %q, want %q (gapless, duplicate-free)", i, frames[i].id, want)
		}
		wantShard := owner
		if i >= 5 {
			wantShard = successor
		}
		if !strings.Contains(frames[i].lines[2], fmt.Sprintf("%q", wantShard)) {
			t.Errorf("frame %d lacks shard %q: %q", i, wantShard, frames[i].lines[2])
		}
	}
	if got := script.badResume.Load(); got != 0 {
		t.Errorf("%d resumed streams presented the wrong Last-Event-ID", got)
	}
	if p.health.Up(owner) {
		t.Error("owner still marked up after dropping the stream")
	}
	if got := p.metrics.streamFailovers.Load(); got != 1 {
		t.Errorf("streamFailovers = %d, want 1", got)
	}
	_, metrics, _ := get(t, ts, "/v1/metrics")
	if !strings.Contains(metrics, "schemaevo_proxy_stream_failovers_total 1") {
		t.Error("stream failover counter missing from exposition")
	}
	if !strings.Contains(metrics, "schemaevo_proxy_events_relayed_total 11") {
		t.Error("events relayed counter missing or wrong in exposition")
	}
}

// TestProxySeedEventsAllShardsDead: nothing listens; the proxy answers with
// the uniform error envelope, not a committed stream.
func TestProxySeedEventsAllShardsDead(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, ts := newTestProxy(t, 0, dead.URL)
	code, body, _ := get(t, ts, "/v1/seeds/1/events")
	if code != http.StatusBadGateway {
		t.Fatalf("status %d: %s", code, body)
	}
	if !strings.Contains(body, `"error"`) {
		t.Errorf("body is not the error envelope: %s", body)
	}
}

// TestProxyFirehoseMergesShards: the fleet firehose interleaves every live
// backend's debug stream, each event stamped with its shard.
func TestProxyFirehoseMergesShards(t *testing.T) {
	mkBackend := func(name string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/debug/events" {
				http.NotFound(w, r)
				return
			}
			fl := w.(http.Flusher)
			w.Header().Set("Content-Type", "text/event-stream")
			for i := 0; i < 3; i++ {
				fmt.Fprintf(w, "event: stage\ndata: {\"span\":%q,\"seq\":%d}\n\n", name, i+1)
				fl.Flush()
			}
			<-r.Context().Done() // keep the leg open until the proxy hangs up
		}))
	}
	b1 := mkBackend("alpha")
	defer b1.Close()
	b2 := mkBackend("beta")
	defer b2.Close()
	_, ts := newTestProxy(t, 0, b1.URL, b2.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/debug/events", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	seen := map[string]int{}
	br := bufio.NewReader(resp.Body)
	for len(seen) < 2 || seen[b1.URL] < 3 || seen[b2.URL] < 3 {
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("merged stream ended early: %v (seen %v)", err, seen)
		}
		if f.event != "stage" {
			continue
		}
		data := f.lines[len(f.lines)-1]
		switch {
		case strings.Contains(data, fmt.Sprintf("%q", b1.URL)) && strings.Contains(data, `"alpha"`):
			seen[b1.URL]++
		case strings.Contains(data, fmt.Sprintf("%q", b2.URL)) && strings.Contains(data, `"beta"`):
			seen[b2.URL]++
		default:
			t.Fatalf("frame without coherent shard provenance: %q", data)
		}
	}
	cancel() // hang up; the proxy should release both legs
}

// --- integration: real backends, one stopped mid-run -------------------------

// blockingSpanRunner emits half its span tree, then blocks until released,
// then emits the rest — the window in which a shard can be killed mid-run.
// The release channel is shared across backends: the successor's fresh run
// (post-release) flows straight through.
type blockingSpanRunner struct {
	tb      testing.TB
	spans   int
	started *sync.Once // shared fleet-wide: ready closes once, on the first run
	ready   chan struct{}
	release chan struct{}
}

func (r *blockingSpanRunner) Run(ctx context.Context, seed int64) (*study.Study, error) {
	half := r.spans / 2
	for i := 0; i < half; i++ {
		_, sp := obs.Start(ctx, fmt.Sprintf("stage.%02d", i))
		sp.End()
	}
	r.started.Do(func() { close(r.ready) })
	<-r.release
	for i := half; i < r.spans; i++ {
		_, sp := obs.Start(ctx, fmt.Sprintf("stage.%02d", i))
		sp.End()
	}
	return realStudy()
}

// TestProxySeedEventsBackendStoppedMidRun is the end-to-end acceptance path:
// a cold run watched through the proxy, the owning backend hard-stopped
// mid-stream, the stream resuming on the survivor via Last-Event-ID — the
// watcher sees every stage event exactly once plus the terminal result.
func TestProxySeedEventsBackendStoppedMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	ready := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	mk := func() *httptest.Server {
		runner := &blockingSpanRunner{tb: t, spans: 8, started: &once, ready: ready, release: release}
		ts := httptest.NewServer(serve.New(serve.Options{Runner: runner}))
		t.Cleanup(ts.Close)
		return ts
	}
	b1, b2 := mk(), mk()
	p, ts := newTestProxy(t, 0, b1.URL, b2.URL)
	owner, _ := p.table.Ring().Route(1)
	ownerTS, survivorTS := b1, b2
	if owner == b2.URL {
		ownerTS, survivorTS = b2, b1
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/seeds/1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	// Read the first half of the stream (8 start/end events from 4 spans),
	// then kill the owner while its run is still blocked.
	var frames []sseFrame
	for len(frames) < 8 {
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("stream broke before the kill point: %v", err)
		}
		if f.event == "stage" {
			frames = append(frames, f)
		}
	}
	<-ready
	ownerTS.CloseClientConnections()
	ownerTS.Close()
	close(release)

	for {
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("stream did not resume after owner stop: %v (got %d frames)", err, len(frames))
		}
		if f.event == "stage" {
			frames = append(frames, f)
		}
		if f.event == "result" {
			frames = append(frames, f)
			break
		}
	}

	// 8 spans × start+end = 16 stage events exactly once, then the result.
	if len(frames) != 17 {
		t.Fatalf("saw %d frames, want 16 stages + result", len(frames))
	}
	seqs := map[string]bool{}
	for _, f := range frames[:16] {
		if seqs[f.id] {
			t.Errorf("duplicate event id %q after failover", f.id)
		}
		seqs[f.id] = true
	}
	for seq := 1; seq <= 16; seq++ {
		if !seqs[fmt.Sprintf("1:%d", seq)] {
			t.Errorf("missing event seq %d after failover", seq)
		}
	}
	// Early frames carry the owner's provenance, late ones the survivor's.
	if !strings.Contains(frames[0].lines[2], fmt.Sprintf("%q", owner)) {
		t.Errorf("first frame lacks owner shard: %q", frames[0].lines[2])
	}
	if !strings.Contains(frames[15].lines[2], fmt.Sprintf("%q", survivorTS.URL)) {
		t.Errorf("last stage frame lacks survivor shard: %q", frames[15].lines[2])
	}
	if got := p.metrics.streamFailovers.Load(); got < 1 {
		t.Error("stream failover not counted")
	}
	_ = survivorTS
}
