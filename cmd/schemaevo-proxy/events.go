package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/schemaevo/schemaevo/internal/serve"
)

// This file fans the SSE live-telemetry surface across the fleet.
//
//	GET /v1/seeds/{id}/events        relayed to the seed's ring owner; on a
//	                                 mid-stream transport failure the proxy
//	                                 fails over to the ring successor and
//	                                 resumes via Last-Event-ID, so the
//	                                 watcher sees one coherent stream
//	                                 across shards
//	GET /v1/histories/{id}/events    the same relay for an ingest run,
//	                                 keyed by the history's content address
//	GET /v1/debug/events             merged firehose of every live backend
//
// Every relayed event gets shard provenance injected into its JSON payload
// (a leading "shard" field naming the backend URL), because a failover or a
// merge means one client stream can interleave several backends.

// sseFrame is one parsed Server-Sent-Events frame as relayed: the raw lines
// (without the terminating blank), plus the fields the proxy routes on.
type sseFrame struct {
	lines []string
	id    string // value of the id: field, "" if none
	event string // value of the event: field, "" if none
}

// readFrame reads one SSE frame off br (terminated by a blank line).
// io.EOF with no lines means the stream ended cleanly between frames.
func readFrame(br *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	for {
		line, err := br.ReadString('\n')
		line = strings.TrimRight(line, "\r\n")
		if err != nil {
			if err == io.EOF && len(f.lines) > 0 {
				return f, io.ErrUnexpectedEOF // truncated frame
			}
			return f, err
		}
		if line == "" {
			if len(f.lines) == 0 {
				continue // stray blank between frames
			}
			return f, nil
		}
		switch {
		case strings.HasPrefix(line, "id:"):
			f.id = strings.TrimSpace(line[len("id:"):])
		case strings.HasPrefix(line, "event:"):
			f.event = strings.TrimSpace(line[len("event:"):])
		}
		f.lines = append(f.lines, line)
	}
}

// injectShard rewrites a frame's data lines so the JSON object payload
// leads with a "shard" field naming the backend that produced it. Non-JSON
// data lines pass through untouched.
func injectShard(f sseFrame, backend string) sseFrame {
	out := f
	out.lines = make([]string, len(f.lines))
	for i, line := range f.lines {
		const prefix = "data: "
		if rest, ok := strings.CutPrefix(line, prefix); ok && strings.HasPrefix(rest, "{") {
			if strings.HasPrefix(rest, "{}") {
				line = prefix + `{"shard":` + strconv.Quote(backend) + `}` + rest[2:]
			} else {
				line = prefix + `{"shard":` + strconv.Quote(backend) + `,` + rest[1:]
			}
		}
		out.lines[i] = line
	}
	return out
}

// writeFrame relays one frame to the client and flushes it.
func writeFrame(w io.Writer, fl http.Flusher, f sseFrame) {
	for _, line := range f.lines {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w)
	fl.Flush()
}

// openEventStream starts one backend SSE subscription. lastID, when not
// empty, is forwarded as Last-Event-ID so the backend skips events the
// client already saw.
func (p *Proxy) openEventStream(ctx context.Context, backend, uri, lastID string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+uri, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	p.metrics.backendRequest(backend)
	resp, err := p.client.Do(req)
	if err != nil {
		p.metrics.backendError(backend)
		return nil, err
	}
	return resp, nil
}

// relayEventStream relays one resource's live stage stream from the ring
// owner of key, failing over along the ring preference order when a shard
// dies mid-run. The watcher keeps its single connection to the proxy the
// whole time; the per-event `shard` field and the resumed sequence numbers
// are the only traces of a failover.
func (p *Proxy) relayEventStream(w http.ResponseWriter, r *http.Request, key int64, ref serve.ErrEnvelope) {
	fl, ok := w.(http.Flusher)
	if !ok {
		ref.Write(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	targets, owner := p.liveTargets(key)
	if owner == "" {
		ref.Write(w, http.StatusServiceUnavailable, "ring is empty — no backends configured")
		return
	}
	if len(targets) == 0 {
		ref.Write(w, http.StatusServiceUnavailable,
			fmt.Sprintf("no live backend for %s — every shard is down", ref.Resource))
		return
	}
	if targets[0] != owner {
		p.metrics.failover(targets[0])
	}

	lastID := r.Header.Get("Last-Event-ID")
	committed := false // SSE headers sent to the client
	var lastErr error
	for i, backend := range targets {
		if r.Context().Err() != nil {
			return
		}
		if i > 0 {
			p.metrics.failover(backend)
			p.metrics.streamFailovers.Add(1)
		}
		resp, err := p.openEventStream(r.Context(), backend, r.URL.RequestURI(), lastID)
		if err != nil {
			lastErr = err
			if r.Context().Err() == nil {
				p.health.MarkDown(backend, err)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// An application-level refusal (bad seed, draining shard): relay
			// it if nothing is committed yet, otherwise try the next shard.
			if !committed {
				defer resp.Body.Close()
				for k, vs := range resp.Header {
					w.Header()[k] = vs
				}
				w.Header().Set("X-Schemaevo-Backend", backend)
				w.WriteHeader(resp.StatusCode)
				io.Copy(w, resp.Body)
				return
			}
			resp.Body.Close()
			lastErr = fmt.Errorf("%s answered %d mid-stream", backend, resp.StatusCode)
			continue
		}
		if !committed {
			h := w.Header()
			h.Set("Content-Type", "text/event-stream")
			h.Set("Cache-Control", "no-store")
			h.Set("X-Accel-Buffering", "no")
			h.Set("X-Schemaevo-Backend", backend)
			w.WriteHeader(http.StatusOK)
			committed = true
		}
		finished, newLast := p.relayFrames(w, fl, resp, backend)
		resp.Body.Close()
		if newLast != "" {
			lastID = newLast
		}
		if finished {
			return // terminal result event relayed
		}
		// The stream broke before its result event: request-path evidence
		// the shard is gone. Mark it down and resume on the next target
		// from the last relayed event id.
		lastErr = fmt.Errorf("%s dropped the event stream", backend)
		if r.Context().Err() == nil {
			p.health.MarkDown(backend, lastErr)
		}
	}
	if r.Context().Err() != nil {
		return
	}
	if !committed {
		if lastErr == nil {
			lastErr = fmt.Errorf("no backend answered")
		}
		ref.Write(w, http.StatusBadGateway, fmt.Sprintf("all shards failed: %v", lastErr))
		return
	}
	// Committed but every shard died mid-run: tell the watcher the stream
	// is over without a result (SSE comments are ignored by parsers that
	// only want events).
	fmt.Fprintf(w, ": stream abandoned — no live backend to resume from\n\n")
	fl.Flush()
}

// relayFrames copies one backend's SSE stream to the client, stamping shard
// provenance on every event. It reports whether the stream reached its
// terminal `result` event, plus the last event id relayed (the resume point
// for a failover).
func (p *Proxy) relayFrames(w io.Writer, fl http.Flusher, resp *http.Response, backend string) (finished bool, lastID string) {
	br := bufio.NewReader(resp.Body)
	for {
		f, err := readFrame(br)
		if err != nil {
			return false, lastID
		}
		if f.id != "" {
			lastID = f.id
		}
		// Count before the write: a client that has read the frame must
		// find it counted.
		p.metrics.eventsRelayed.Add(1)
		writeFrame(w, fl, injectShard(f, backend))
		if f.event == "result" {
			return true, lastID
		}
	}
}

// handleFirehose merges every live backend's /v1/debug/events stream into
// one SSE response, each event stamped with its shard. Backend legs that
// drop are noted as comments; the merged stream lives until the client
// leaves or every leg has ended.
func (p *Proxy) handleFirehose(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		serve.ErrEnvelope{}.Write(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	var members []string
	for _, m := range p.table.Ring().Members() {
		if p.health.Up(m) {
			members = append(members, m)
		}
	}
	if len(members) == 0 {
		serve.ErrEnvelope{}.Write(w, http.StatusServiceUnavailable, "no live backend")
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": fleet firehose across %d shards\n\n", len(members))
	fl.Flush()

	frames := make(chan sseFrame, 64)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	var wg sync.WaitGroup
	for _, backend := range members {
		wg.Add(1)
		go func(backend string) {
			defer wg.Done()
			resp, err := p.openEventStream(ctx, backend, "/v1/debug/events", "")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			br := bufio.NewReader(resp.Body)
			for {
				f, err := readFrame(br)
				if err != nil {
					if ctx.Err() == nil {
						select {
						case frames <- sseFrame{lines: []string{": shard " + backend + " stream ended"}}:
						case <-ctx.Done():
						}
					}
					return
				}
				select {
				case frames <- injectShard(f, backend):
				case <-ctx.Done():
					return
				}
			}
		}(backend)
	}
	legsDone := make(chan struct{})
	go func() { wg.Wait(); close(legsDone) }()

	for {
		select {
		case <-r.Context().Done():
			return
		case f := <-frames:
			writeFrame(w, fl, f)
			if len(f.lines) > 0 && !strings.HasPrefix(f.lines[0], ":") {
				p.metrics.eventsRelayed.Add(1)
			}
		case <-legsDone:
			// Drain anything the legs parked before exiting.
			for {
				select {
				case f := <-frames:
					writeFrame(w, fl, f)
				default:
					fmt.Fprint(w, ": all shard streams ended\n\n")
					fl.Flush()
					return
				}
			}
		}
	}
}
