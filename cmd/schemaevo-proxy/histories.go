package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/schemaevo/schemaevo/internal/ingest"
	"github.com/schemaevo/schemaevo/internal/serve"
)

// This file is the proxy's ingest surface: POST /v1/histories forwarded to
// the content address's ring owner.
//
// Uploads are content-addressed, so the proxy can compute the routing key
// itself: it normalizes the body exactly like a backend would
// (ingest.Prepare) and routes to the owner of the resulting 64-bit key.
// The same shard that will serve GET /v1/histories/{id} therefore runs the
// ingest, and its LRU is warm for the follow-up reads. POSTs are never
// hedged — a duplicate would run the analysis twice (dedup makes that
// harmless but wasteful); transport errors fail over sequentially instead.

// handleIngest forwards one history upload to the ring owner of its content
// address.
func (p *Proxy) handleIngest(w http.ResponseWriter, r *http.Request) {
	ref := serve.Histories.Ref("")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, p.opts.MaxUploadBytes))
	if err != nil {
		if _, ok := err.(*http.MaxBytesError); ok {
			ref.Write(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("upload exceeds the %d-byte limit", p.opts.MaxUploadBytes))
			return
		}
		ref.Write(w, http.StatusBadRequest, err.Error())
		return
	}

	// Normalize locally to learn the content address — that hash is the ring
	// key. A body the proxy cannot normalize (other than an unsupported
	// media type, rejected here) is forwarded to the first live shard so the
	// backend produces the authoritative error envelope.
	var targets []string
	up, err := ingest.Prepare(r.Header.Get("Content-Type"), body)
	switch {
	case err == nil:
		ref = serve.Histories.Ref(up.ID)
		targets, _ = p.liveTargets(up.Key())
	case errors.Is(err, ingest.ErrUnsupportedMedia):
		ref.Write(w, http.StatusUnsupportedMediaType,
			fmt.Sprintf("unsupported content type %q; supported: %s",
				r.Header.Get("Content-Type"), strings.Join(ingest.SupportedMediaTypes(), ", ")))
		return
	default:
		for _, m := range p.table.Ring().Members() {
			if p.health.Up(m) {
				targets = append(targets, m)
				break
			}
		}
	}
	if len(targets) == 0 {
		ref.Write(w, http.StatusServiceUnavailable, "no live backend")
		return
	}

	var lastErr error
	for i, backend := range targets {
		if r.Context().Err() != nil {
			return
		}
		if i > 0 {
			p.metrics.failover(backend)
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			backend+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			ref.Write(w, http.StatusInternalServerError, err.Error())
			return
		}
		copyRequestHeaders(req.Header, r.Header)
		req.ContentLength = int64(len(body))
		p.metrics.backendRequest(backend)
		resp, err := p.client.Do(req)
		if err != nil {
			lastErr = err
			p.metrics.backendError(backend)
			if r.Context().Err() == nil {
				p.health.MarkDown(backend, err)
			}
			continue
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			w.Header()[k] = vs
		}
		w.Header().Set("X-Schemaevo-Backend", backend)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no backend answered")
	}
	ref.Write(w, http.StatusBadGateway, fmt.Sprintf("all shards failed: %v", lastErr))
}
