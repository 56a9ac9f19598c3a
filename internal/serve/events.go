package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
)

// This file is the daemon's live-telemetry surface: two Server-Sent-Events
// endpoints on top of the obs span event bus.
//
//	GET /v1/{seeds|histories}/{id}/events  stage progress of one run, ending
//	                                       with a `result` event
//	GET /v1/debug/events                   firehose of every span event on the
//	                                       daemon until the client leaves
//
// Events use `id: <key>:<seq>` where seq is the run tracer's publication
// sequence — the event's position in the run's canonical stream. Because the
// pipeline is deterministic per key, a reconnecting client (or the proxy
// failing over mid-stream) sends `Last-Event-ID: <key>:<n>` and the daemon
// skips everything it already saw, even when the resumed run is a fresh
// execution on another shard.

// keepaliveInterval is how often an otherwise idle event stream emits an
// SSE comment so intermediaries don't reap the connection. A var, not a
// const: tests shorten it.
var keepaliveInterval = 15 * time.Second

// IsEventStreamPath reports whether path is one of the SSE routes, which
// are exempt from the per-request deadline (here and at the proxy).
func IsEventStreamPath(path string) bool {
	return path == "/v1/debug/events" ||
		(strings.HasPrefix(path, "/v1/seeds/") && strings.HasSuffix(path, "/events")) ||
		(strings.HasPrefix(path, "/v1/histories/") && strings.HasSuffix(path, "/events"))
}

// stageEvent is the SSE `stage` payload. Field order is fixed by the
// struct, so one stage tree always serializes byte-identically.
type stageEvent struct {
	Seed      int64          `json:"seed"` // the run's int64 key; a truncated content address for histories
	History   string         `json:"history,omitempty"`
	Seq       int64          `json:"seq"`
	Span      string         `json:"span"`
	ID        int64          `json:"id"`
	Parent    int64          `json:"parent"`
	Depth     int            `json:"depth"`
	Phase     string         `json:"phase"` // "start" | "end"
	ElapsedMS float64        `json:"elapsed_ms,omitempty"`
	Attrs     map[string]any `json:"attrs,omitempty"`
}

// resultEvent is the terminal SSE payload of a resource stream.
type resultEvent struct {
	Seed      int64   `json:"seed"`
	History   string  `json:"history,omitempty"`
	Status    string  `json:"status"` // "ok" | "error"
	Error     string  `json:"error,omitempty"`
	Events    int64   `json:"events"`
	Dropped   int64   `json:"dropped"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// stagePayload converts a bus event to its wire form.
func stagePayload(ev obs.Event) stageEvent {
	se := stageEvent{
		Seed:   ev.Seed,
		Seq:    ev.Seq,
		Span:   ev.Span,
		ID:     ev.ID,
		Parent: ev.Parent,
		Depth:  ev.Depth,
		Phase:  "start",
	}
	if ev.End {
		se.Phase = "end"
		se.ElapsedMS = float64(ev.Elapsed) / float64(time.Millisecond)
		if len(ev.Attrs) > 0 {
			// encoding/json writes map keys sorted, so attrs stay
			// deterministic too.
			se.Attrs = make(map[string]any, len(ev.Attrs))
			for _, a := range ev.Attrs {
				se.Attrs[a.Key] = a.Value()
			}
		}
	}
	return se
}

// sseWriter serializes SSE frames onto one response, flushing per frame and
// tracking the sent count and the per-stream dropped-event sync.
type sseWriter struct {
	w       http.ResponseWriter
	fl      http.Flusher
	metrics *Metrics
	sub     *obs.Subscriber
	id      string // full content address stamped on frames of an addressed kind
	sent    int64
	synced  int64 // dropped count already pushed into the metrics
}

func (s *Server) newSSEWriter(w http.ResponseWriter, sub *obs.Subscriber) (*sseWriter, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass frames through
	w.WriteHeader(http.StatusOK)
	return &sseWriter{w: w, fl: fl, metrics: s.metrics, sub: sub}, true
}

// stage writes one stage frame unless its seq is at or below after (the
// Last-Event-ID resume point).
func (sw *sseWriter) stage(ev obs.Event, after int64) {
	if ev.Seq <= after && ev.Seq > 0 {
		return
	}
	payload := stagePayload(ev)
	payload.History = sw.id
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	fmt.Fprintf(sw.w, "id: %d:%d\nevent: stage\ndata: %s\n\n", ev.Seed, ev.Seq, data)
	sw.fl.Flush()
	sw.sent++
	sw.metrics.eventsSent.Add(1)
	sw.syncDropped()
}

// result writes the terminal frame of a resource stream.
func (sw *sseWriter) result(seed int64, runErr error, elapsed time.Duration) {
	res := resultEvent{
		Seed:      seed,
		History:   sw.id,
		Status:    "ok",
		Events:    sw.sent,
		Dropped:   sw.sub.Dropped(),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	if runErr != nil {
		res.Status = "error"
		res.Error = runErr.Error()
	}
	data, err := json.Marshal(res)
	if err != nil {
		return
	}
	fmt.Fprintf(sw.w, "event: result\ndata: %s\n\n", data)
	sw.fl.Flush()
	sw.syncDropped()
}

// comment writes an SSE comment line (keepalives, provenance notes).
func (sw *sseWriter) comment(text string) {
	fmt.Fprintf(sw.w, ": %s\n\n", text)
	sw.fl.Flush()
}

// syncDropped folds the subscriber's drop counter into the process metric
// incrementally, so mid-stream scrapes see losses as they happen.
func (sw *sseWriter) syncDropped() {
	if d := sw.sub.Dropped(); d > sw.synced {
		sw.metrics.eventsDropped.Add(d - sw.synced)
		sw.synced = d
	}
}

// lastEventSeq parses the resume point from the Last-Event-ID header (or
// the ?after= query parameter, for curl convenience): either "<seed>:<seq>"
// or a bare "<seq>". Malformed values mean "from the beginning".
func lastEventSeq(r *http.Request) int64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw == "" {
		return 0
	}
	if i := strings.LastIndexByte(raw, ':'); i >= 0 {
		raw = raw[i+1:]
	}
	seq, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || seq < 0 {
		return 0
	}
	return seq
}

// handleEvents streams one resource's run stage progress as SSE, ending
// with a `result` event once the run (or restore, or cache hit) settles.
// A seed's stream triggers the run of a cold seed; a history's can only
// join an ingest already in flight, since the upload body comes with the
// POST alone. Concurrent watchers and artifact requests all share one run
// through the singleflight, and a client that disconnects mid-run cancels
// nothing shared — the run keeps going and fills the cache, exactly like an
// abandoned artifact request.
func (r *resource[K]) handleEvents(w http.ResponseWriter, req *http.Request) {
	id, ok := r.parse(w, req)
	if !ok {
		return
	}
	s, key := r.srv, r.Key(id)
	after := lastEventSeq(req)

	sub := s.bus.Subscribe(key, s.opts.EventBuffer)
	defer sub.Close()
	s.metrics.eventSubscribers.Add(1)
	defer s.metrics.eventSubscribers.Add(-1)

	// Subscribe first, then settle: a run that starts in between would
	// otherwise lose its early events.
	start := time.Now()
	done := r.settle(req.Context(), id)
	if done == nil {
		r.Ref(id).Write(w, http.StatusNotFound,
			fmt.Sprintf("unknown %s and no run in flight; POST it to /v1/%s first", r.Name, r.Plural))
		return
	}
	sw, ok := s.newSSEWriter(w, sub)
	if !ok {
		r.Ref(id).Write(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	if r.Addressed {
		sw.id = r.Format(id)
	}
	sw.comment(fmt.Sprintf("stage events for %s %s", r.Name, r.Format(id)))

	keepalive := time.NewTicker(keepaliveInterval)
	defer keepalive.Stop()
	var runErr error
wait:
	for {
		select {
		case <-req.Context().Done():
			return // client gone; any in-flight run continues detached
		case runErr = <-done:
			break wait
		case ev, ok := <-sub.C():
			if !ok {
				break wait
			}
			sw.stage(ev, after)
		case <-keepalive.C:
			sw.comment("keepalive")
		}
	}
	// Every span of the run ended (and so published) before it settled;
	// drain what is still buffered, then close with the result.
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				break
			}
			sw.stage(ev, after)
			continue
		default:
		}
		break
	}
	sw.result(key, runErr, time.Since(start))
}

// settle returns the channel on which id's run outcome arrives: at once
// for a cached or stored resource, when the run proper ends for one in
// flight — a seed's result precedes its render — or nil when id is unknown
// and the kind cannot start it.
func (r *resource[K]) settle(ctx context.Context, id K) <-chan error {
	done := make(chan error, 1)
	var f *flight
	if r.restore(ctx, id); !r.cache.Has(r.Key(id)) {
		f, _ = r.flightFor(id, r.start)
	}
	switch {
	case f != nil:
		go func() {
			select {
			case <-f.ran:
				done <- f.runErr
			case <-ctx.Done():
				done <- ctx.Err()
			}
		}()
	case r.cache.Has(r.Key(id)): // cached, or a run settled in between
		done <- nil
	default:
		return nil
	}
	return done
}

// handleDebugEvents is the firehose: every span event on the daemon —
// pipeline runs for any seed, render-time experiment spans, store
// maintenance — until the client disconnects. It never triggers work.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	sub := s.bus.Subscribe(0, s.opts.EventBuffer)
	defer sub.Close()
	s.metrics.eventSubscribers.Add(1)
	defer s.metrics.eventSubscribers.Add(-1)

	sw, ok := s.newSSEWriter(w, sub)
	if !ok {
		ErrEnvelope{}.Write(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	sw.comment("span event firehose")

	keepalive := time.NewTicker(keepaliveInterval)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			sw.stage(ev, 0)
		case <-keepalive.C:
			sw.comment("keepalive")
		}
	}
}
