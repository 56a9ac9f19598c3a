package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/study"
)

// spanRunner is a stub pipeline that emits a fixed nested span tree on the
// run context — the shape the SSE stream is built from — and optionally
// blocks until released. It serves the shared seed-1 study so artifact
// requests against the same server also succeed.
type spanRunner struct {
	tb      testing.TB
	spans   int           // top-level stages to emit (each with one child)
	runs    atomic.Int64  // pipeline executions observed
	started chan struct{} // closed when the first run begins, if non-nil
	release chan struct{} // run blocks here before emitting, if non-nil
}

func (r *spanRunner) Run(ctx context.Context, seed int64) (*study.Study, error) {
	r.runs.Add(1)
	if r.started != nil {
		close(r.started)
	}
	if r.release != nil {
		<-r.release
	}
	for i := 0; i < r.spans; i++ {
		sctx, sp := obs.Start(ctx, fmt.Sprintf("stage.%02d", i), obs.Int("i", int64(i)))
		_, child := obs.Start(sctx, fmt.Sprintf("stage.%02d.child", i))
		child.End()
		sp.End()
	}
	st, err := realStudy()
	if err != nil {
		r.tb.Errorf("pipeline: %v", err)
	}
	return st, err
}

// sseEvent is one parsed client-side SSE frame.
type sseEvent struct {
	id, event, data string
}

// readSSE consumes frames off an SSE body until a `result` event or EOF.
func readSSE(tb testing.TB, body *bufio.Reader) []sseEvent {
	tb.Helper()
	var out []sseEvent
	var cur sseEvent
	for {
		line, err := body.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		if err != nil {
			return out
		}
		switch {
		case line == "":
			if cur != (sseEvent{}) {
				out = append(out, cur)
				if cur.event == "result" {
					return out
				}
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, ":"): // comment/keepalive
		case strings.HasPrefix(line, "id: "):
			cur.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		}
	}
}

// openStream GETs an SSE path and returns the response plus a frame reader.
// The caller must close resp.Body.
func openStream(tb testing.TB, ts *httptest.Server, path string, hdr map[string]string) (*http.Response, *bufio.Reader) {
	tb.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		tb.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		tb.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		tb.Fatalf("content type %q", ct)
	}
	return resp, bufio.NewReader(resp.Body)
}

// TestSeedEventsColdRunStream is the acceptance path: a cold seed request
// streams the run's stage events — at least 8 distinct ones — before the
// terminal result, with monotonic seqs and stable `<seed>:<seq>` ids.
func TestSeedEventsColdRunStream(t *testing.T) {
	runner := &spanRunner{tb: t, spans: 6} // 6 stages × (start+end) × 2 levels = 24 events
	srv := New(Options{Runner: runner})
	srv.render = sharedRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, br := openStream(t, ts, "/v1/seeds/1/events", nil)
	defer resp.Body.Close()
	frames := readSSE(t, br)

	if len(frames) == 0 || frames[len(frames)-1].event != "result" {
		t.Fatalf("stream did not end with a result event: %+v", frames)
	}
	stages := frames[:len(frames)-1]
	distinct := map[string]bool{}
	var lastSeq int64
	for i, fr := range stages {
		if fr.event != "stage" {
			t.Fatalf("frame %d: event %q, want stage", i, fr.event)
		}
		var ev struct {
			Seed  int64  `json:"seed"`
			Seq   int64  `json:"seq"`
			Span  string `json:"span"`
			Phase string `json:"phase"`
		}
		if err := json.Unmarshal([]byte(fr.data), &ev); err != nil {
			t.Fatalf("frame %d: bad JSON %q: %v", i, fr.data, err)
		}
		if ev.Seed != 1 {
			t.Errorf("frame %d: seed %d", i, ev.Seed)
		}
		if ev.Seq <= lastSeq {
			t.Errorf("frame %d: seq %d not monotonic after %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if want := fmt.Sprintf("1:%d", ev.Seq); fr.id != want {
			t.Errorf("frame %d: id %q, want %q", i, fr.id, want)
		}
		distinct[ev.Span+"/"+ev.Phase] = true
	}
	if len(distinct) < 8 {
		t.Errorf("saw %d distinct stage events, want >= 8", len(distinct))
	}

	var res struct {
		Status  string `json:"status"`
		Events  int64  `json:"events"`
		Dropped int64  `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(frames[len(frames)-1].data), &res); err != nil {
		t.Fatalf("result JSON: %v", err)
	}
	if res.Status != "ok" {
		t.Errorf("result status %q", res.Status)
	}
	if res.Events != int64(len(stages)) {
		t.Errorf("result events %d, want %d", res.Events, len(stages))
	}
	if res.Dropped != 0 {
		t.Errorf("result dropped %d, want 0", res.Dropped)
	}
	if got := srv.Metrics().Snapshot().EventsSent; got != int64(len(stages)) {
		t.Errorf("metrics events sent %d, want %d", got, len(stages))
	}
}

// TestSeedEventsStreamIsDeterministic re-runs a cold single-worker stream
// on two servers and expects byte-identical stage frames.
func TestSeedEventsStreamIsDeterministic(t *testing.T) {
	stream := func() []sseEvent {
		srv := New(Options{Runner: &spanRunner{tb: t, spans: 5}})
		srv.render = sharedRender
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, br := openStream(t, ts, "/v1/seeds/1/events", nil)
		defer resp.Body.Close()
		return readSSE(t, br)
	}
	a, b := stream(), stream()
	if len(a) != len(b) {
		t.Fatalf("frame counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].id != b[i].id || a[i].event != b[i].event {
			t.Fatalf("frame %d differs: %+v vs %+v", i, a[i], b[i])
		}
		// Stage payloads are byte-identical except the timing field.
		if a[i].event == "stage" && !strings.Contains(a[i].data, `"elapsed_ms"`) && a[i].data != b[i].data {
			t.Fatalf("frame %d data differs:\n%s\n%s", i, a[i].data, b[i].data)
		}
	}
}

// TestSeedEventsWatchersShareOneRun: N concurrent watchers plus an artifact
// request all join one singleflight run.
func TestSeedEventsWatchersShareOneRun(t *testing.T) {
	runner := &spanRunner{tb: t, spans: 4, started: make(chan struct{}), release: make(chan struct{})}
	srv := New(Options{Runner: runner})
	srv.render = sharedRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const watchers = 3
	var wg sync.WaitGroup
	results := make([][]sseEvent, watchers)
	for i := 0; i < watchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, br := openStream(t, ts, "/v1/seeds/1/events", nil)
			defer resp.Body.Close()
			results[i] = readSSE(t, br)
		}(i)
	}
	<-runner.started
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, _, _ := get(t, ts, "/v1/seeds/1/artifacts/funnel")
		if code != http.StatusOK {
			t.Errorf("artifact status %d", code)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let every watcher subscribe pre-release
	close(runner.release)
	wg.Wait()

	if got := runner.runs.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times, want 1", got)
	}
	for i, frames := range results {
		if len(frames) == 0 || frames[len(frames)-1].event != "result" {
			t.Errorf("watcher %d: no result event", i)
		}
	}
}

// TestSeedEventsDisconnectCancelsNothingShared: a watcher that walks away
// mid-run leaves the pipeline running; the run completes and fills the cache.
func TestSeedEventsDisconnectCancelsNothingShared(t *testing.T) {
	runner := &spanRunner{tb: t, spans: 4, started: make(chan struct{}), release: make(chan struct{})}
	srv := New(Options{Runner: runner})
	srv.render = sharedRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/seeds/1/events", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started
	cancel() // client disconnects mid-run
	resp.Body.Close()
	close(runner.release)

	// The detached run still completes and fills the cache: the next artifact
	// request is a cache hit, not a second execution.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Snapshot().PipelineInflight > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	code, _, _ := get(t, ts, "/v1/seeds/1/artifacts/funnel")
	if code != http.StatusOK {
		t.Fatalf("artifact after disconnect: status %d", code)
	}
	if got := runner.runs.Load(); got != 1 {
		t.Errorf("pipeline ran %d times, want 1 (disconnect must not cancel or re-run)", got)
	}
}

// slowFlushWriter is a ResponseWriter whose writes stall — the slow SSE
// consumer that forces the subscriber ring to drop oldest.
type slowFlushWriter struct {
	httptest.ResponseRecorder
	delay time.Duration
}

func (w *slowFlushWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return w.ResponseRecorder.Write(p)
}
func (w *slowFlushWriter) Flush() {}

// TestSeedEventsSlowConsumerDropsOldest: with a tiny ring and a stalling
// client, the publisher never blocks; the stream loses oldest events and
// reports the loss in the result frame and the process metrics.
func TestSeedEventsSlowConsumerDropsOldest(t *testing.T) {
	runner := &spanRunner{tb: t, spans: 60} // 240 events against a 4-slot ring
	srv := New(Options{Runner: runner, EventBuffer: 4})
	srv.render = sharedRender

	w := &slowFlushWriter{ResponseRecorder: *httptest.NewRecorder(), delay: 2 * time.Millisecond}
	req := httptest.NewRequest(http.MethodGet, "/v1/seeds/1/events", nil)
	srv.ServeHTTP(w, req)

	frames := readSSE(t, bufio.NewReader(w.Body))
	if len(frames) == 0 || frames[len(frames)-1].event != "result" {
		t.Fatalf("no result event")
	}
	var res struct {
		Status  string `json:"status"`
		Events  int64  `json:"events"`
		Dropped int64  `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(frames[len(frames)-1].data), &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "ok" {
		t.Errorf("result status %q", res.Status)
	}
	if res.Dropped == 0 {
		t.Error("expected dropped events with a stalled consumer and a 4-slot ring")
	}
	if res.Events+res.Dropped != 240 {
		t.Errorf("events %d + dropped %d != 240 published", res.Events, res.Dropped)
	}
	if got := srv.Metrics().Snapshot().EventsDropped; got != res.Dropped {
		t.Errorf("metrics dropped %d, want %d", got, res.Dropped)
	}
}

// TestSeedEventsResume: a reconnect with Last-Event-ID (or ?after=) skips
// everything at or below the resume seq, even though the resumed run is a
// fresh execution.
func TestSeedEventsResume(t *testing.T) {
	runner := &spanRunner{tb: t, spans: 4}
	srv := New(Options{Runner: runner})
	srv.render = sharedRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, br := openStream(t, ts, "/v1/seeds/1/events", map[string]string{"Last-Event-ID": "1:10"})
	defer resp.Body.Close()
	frames := readSSE(t, br)
	stages := frames[:len(frames)-1]
	// 16 events total; seq <= 10 skipped.
	if len(stages) != 6 {
		t.Fatalf("resumed stream relayed %d stage events, want 6", len(stages))
	}
	for _, fr := range stages {
		var ev struct {
			Seq int64 `json:"seq"`
		}
		json.Unmarshal([]byte(fr.data), &ev)
		if ev.Seq <= 10 {
			t.Errorf("resumed stream replayed seq %d", ev.Seq)
		}
	}
}

// TestDebugEventsFirehose: the firehose relays span events for any seed and
// never triggers work itself.
func TestDebugEventsFirehose(t *testing.T) {
	runner := &spanRunner{tb: t, spans: 3}
	srv := New(Options{Runner: runner})
	srv.render = sharedRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/debug/events", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	if got := runner.runs.Load(); got != 0 {
		t.Fatalf("firehose triggered %d runs", got)
	}
	// Trigger a run for seed 9 via a normal artifact request.
	go func() {
		if resp, err := http.Get(ts.URL + "/v1/seeds/9/artifacts/funnel"); err == nil {
			resp.Body.Close()
		}
	}()

	// The firehose sees its stage events (seed 9) arrive live. The stream
	// has no terminal event, so frames are read incrementally.
	var sawSeed9 bool
	deadline := time.After(10 * time.Second)
	got := make(chan sseEvent)
	go func() {
		var cur sseEvent
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case line == "":
				if cur != (sseEvent{}) {
					select {
					case got <- cur:
					case <-ctx.Done():
						return
					}
					cur = sseEvent{}
				}
			case strings.HasPrefix(line, ":"):
			case strings.HasPrefix(line, "id: "):
				cur.id = line[len("id: "):]
			case strings.HasPrefix(line, "event: "):
				cur.event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				cur.data = line[len("data: "):]
			}
		}
	}()
	for !sawSeed9 {
		select {
		case fr := <-got:
			if fr.event == "stage" && strings.Contains(fr.data, `"seed":9`) {
				sawSeed9 = true
			}
		case <-deadline:
			t.Fatal("firehose never relayed seed-9 stage events")
		}
	}
	if got := srv.Metrics().Snapshot().EventSubscribers; got != 1 {
		t.Errorf("subscriber gauge %d, want 1", got)
	}
}

// TestWarmSeedEventsSettleInstantly: a cached seed produces no stage events,
// just the terminal result.
func TestWarmSeedEventsSettleInstantly(t *testing.T) {
	runner := &spanRunner{tb: t, spans: 4}
	srv := New(Options{Runner: runner})
	srv.render = sharedRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, _, _ := get(t, ts, "/v1/seeds/1/artifacts/funnel"); code != http.StatusOK {
		t.Fatal("warming request failed")
	}
	resp, br := openStream(t, ts, "/v1/seeds/1/events", nil)
	defer resp.Body.Close()
	frames := readSSE(t, br)
	if len(frames) != 1 || frames[0].event != "result" {
		t.Fatalf("warm stream frames: %+v, want just a result", frames)
	}
	if got := runner.runs.Load(); got != 1 {
		t.Errorf("warm watcher re-ran the pipeline (%d runs)", got)
	}
}
