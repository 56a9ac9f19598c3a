package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/serve"
	"github.com/schemaevo/schemaevo/internal/shard"
)

// This file is the proxy's serving core: the key-routed reverse-proxy path
// with hedging, the fan-out endpoints (/v1/seeds, /v1/histories,
// /v1/healthz, /v1/debug/stats), and the membership admin surface. The binary's flag
// parsing and lifecycle live in main.go; the metrics in metrics.go.

// proxyOptions configures a Proxy. The zero value is not useful — Backends
// must name at least one schemaevod base URL.
type proxyOptions struct {
	// Backends are the initial schemaevod base URLs (normalized by
	// parseBackends). Membership can change at runtime via the admin
	// endpoint; only the joining/leaving backend's ring arcs move.
	Backends []string
	// VNodes is the per-backend virtual-node count (0 = shard.DefaultVNodes).
	VNodes int
	// HedgeDelay is how long the proxy waits on the owning shard before
	// duplicating the request to the ring successor. First answer wins, the
	// loser is cancelled. 0 disables hedging (transport-error failover still
	// applies).
	HedgeDelay time.Duration
	// Timeout bounds one proxied request end to end.
	Timeout time.Duration
	// MaxUploadBytes bounds a POST /v1/histories body at the proxy edge, so
	// oversized uploads are rejected before consuming backend bandwidth
	// (0 = serve.DefaultMaxUploadBytes; backends enforce their own bound too).
	MaxUploadBytes int64
	// TraceMaxSpans head-samples the /v1/debug/trace collecting tracer.
	TraceMaxSpans int
	// Client performs backend requests (nil = a keep-alive transport sized
	// for fan-out). Health checks share it.
	Client *http.Client
	// Logger receives structured log lines (nil = silent).
	Logger *slog.Logger
}

// Proxy fans /v1 requests out to a fleet of schemaevod backends: seed-keyed
// routes go to the consistent-hash owner of the seed (hedged to the ring
// successor when slow or down), fleet-wide routes aggregate every live
// backend. Proxy is an http.Handler.
type Proxy struct {
	opts    proxyOptions
	table   *shard.Table
	health  *shard.Health
	client  *http.Client
	metrics *proxyMetrics
	stages  *obs.StageRegistry
	tracer  *obs.Tracer // metrics-only: proxy.route / proxy.hedge / proxy.backend
	mux     *http.ServeMux
}

// newProxy builds a Proxy from opts.
func newProxy(opts proxyOptions) (*Proxy, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("proxy: at least one backend required")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	if opts.TraceMaxSpans == 0 {
		opts.TraceMaxSpans = 4096
	} else if opts.TraceMaxSpans < 0 {
		opts.TraceMaxSpans = 0
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = serve.DefaultMaxUploadBytes
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	p := &Proxy{
		opts:    opts,
		table:   shard.NewTable(opts.Backends, opts.VNodes),
		health:  shard.NewHealth(opts.Client),
		client:  opts.Client,
		metrics: newProxyMetrics(),
		stages:  obs.NewStageRegistry(),
	}
	p.health.Track(opts.Backends...)
	p.tracer = obs.NewTracer(obs.Options{Stages: p.stages})

	mux := http.NewServeMux()
	mountKind(mux, p, serve.Seeds)
	mux.HandleFunc("GET /v1/seeds/{id}/figures/{name}", keyed(serve.Seeds, p.handleRouted))
	mountKind(mux, p, serve.Histories)
	mux.HandleFunc("POST /v1/histories", p.handleIngest)
	mux.HandleFunc("GET /v1/debug/events", p.handleFirehose)
	mux.HandleFunc("GET /v1/experiments", p.handleAnyBackend)
	mux.HandleFunc("GET /v1/healthz", p.handleHealth)
	mux.HandleFunc("GET /v1/metrics", p.handleMetrics)
	mux.HandleFunc("GET /v1/debug/stats", p.handleStats)
	mux.HandleFunc("GET /v1/debug/trace", p.handleTrace)
	mux.HandleFunc("POST /v1/admin/backends", p.handleAdmin)
	p.mux = mux
	return p, nil
}

// parseBackends splits and normalizes the -backends flag: comma-separated
// base URLs, scheme defaulting to http, trailing slashes stripped.
func parseBackends(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("no backends given")
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		b, err := normalizeBackend(part)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// normalizeBackend validates one backend base URL.
func normalizeBackend(raw string) (string, error) {
	b := strings.TrimSpace(raw)
	if b == "" {
		return "", fmt.Errorf("empty backend URL")
	}
	if !strings.Contains(b, "://") {
		b = "http://" + b
	}
	u, err := url.Parse(b)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return "", fmt.Errorf("bad backend URL %q", raw)
	}
	return strings.TrimRight(b, "/"), nil
}

// ServeHTTP counts the request and applies the end-to-end deadline before
// dispatching. Event-stream routes are exempt from the deadline — a live
// relay runs as long as the watched pipeline (or, for the firehose, the
// client).
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.metrics.requests.Add(1)
	ctx := r.Context()
	if !serve.IsEventStreamPath(r.URL.Path) {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.opts.Timeout)
		defer cancel()
	}
	rec := &serve.StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
	p.mux.ServeHTTP(rec, r.WithContext(ctx))
	if rec.Status >= 400 {
		p.metrics.errors.Add(1)
	}
}

// mountKind registers one resource kind's routes: keyed GETs and the event
// stream go to the id's ring owner, the listing merges the whole fleet.
func mountKind[K cmp.Ordered](mux *http.ServeMux, p *Proxy, kind serve.Kind[K]) {
	base := "GET /v1/" + kind.Plural
	mux.HandleFunc(base, listing(p, kind))
	mux.HandleFunc(base+"/{id}", keyed(kind, p.handleRouted))
	mux.HandleFunc(base+"/{id}/artifacts/{key}", keyed(kind, p.handleRouted))
	mux.HandleFunc(base+"/{id}/events", keyed(kind, p.relayEventStream))
}

// keyed adapts a handler of one resource's ring key to a kind's {id}
// routes, answering 400 for a malformed id. The kind's Key picks the ring
// owner, so a resource's requests land on the shard whose LRU holds it.
func keyed[K cmp.Ordered](kind serve.Kind[K], h func(http.ResponseWriter, *http.Request, int64, serve.ErrEnvelope)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := kind.Parse(r.PathValue("id"))
		if err != nil {
			var zero K
			kind.Ref(zero).Write(w, http.StatusBadRequest, err.Error())
			return
		}
		h(w, r, kind.Key(id), kind.Ref(id))
	}
}

// liveTargets resolves a seed to its failover-ordered live backend list
// (ring preference filtered by health) plus the ring owner.
func (p *Proxy) liveTargets(seed int64) (targets []string, owner string) {
	prefs := p.table.Ring().Preference(seed)
	if len(prefs) == 0 {
		return nil, ""
	}
	owner = prefs[0]
	for _, m := range prefs {
		if p.health.Up(m) {
			targets = append(targets, m)
		}
	}
	return targets, owner
}

// handleRouted serves the keyed routes: consistent-hash routing with
// hedging, relaying the winning backend's response verbatim plus the
// X-Schemaevo-Backend / X-Schemaevo-Hedged provenance headers.
func (p *Proxy) handleRouted(w http.ResponseWriter, r *http.Request, key int64, ref serve.ErrEnvelope) {
	p.relayKeyed(obs.WithTracer(r.Context(), p.tracer), w, r, key, ref)
}

// relayKeyed performs one routed fetch-and-relay for a resource keyed into
// the ring by key, under whatever tracer ctx carries (the metrics-only
// tracer normally; a collecting one for /v1/debug/trace).
func (p *Proxy) relayKeyed(ctx context.Context, w http.ResponseWriter, r *http.Request, key int64, ref serve.ErrEnvelope) {
	ctx, span := obs.Start(ctx, "proxy.route",
		obs.Int("seed", key), obs.String("resource", ref.Resource))
	defer span.End()

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
		// The owner is marked down: its ring successor absorbs the request.
		p.metrics.failover(targets[0])
		span.SetAttr(obs.String("owner_down", owner))
	}

	resp, backend, hedged, done, err := p.fetchHedged(ctx, r, targets)
	if err != nil {
		span.SetAttr(obs.String("error", err.Error()))
		ref.Write(w, http.StatusBadGateway, fmt.Sprintf("all shards failed: %v", err))
		return
	}
	defer done()
	defer resp.Body.Close()
	span.SetAttr(obs.String("backend", backend))

	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	h.Set("X-Schemaevo-Backend", backend)
	if hedged {
		h.Set("X-Schemaevo-Hedged", "1")
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// legResult is one backend attempt's outcome.
type legResult struct {
	resp    *http.Response
	backend string
	idx     int
	err     error
}

// fetchHedged races the request across targets: the first target starts
// immediately; after HedgeDelay without an answer the next target gets a
// duplicate (the hedge); a transport error triggers the next target at once
// (failover). The first response wins — every losing leg's context is
// cancelled and its body closed. done releases the winner's leg context and
// must be called after the body is consumed.
func (p *Proxy) fetchHedged(ctx context.Context, r *http.Request, targets []string) (resp *http.Response, backend string, hedged bool, done func(), err error) {
	results := make(chan legResult, len(targets))
	cancels := make([]context.CancelFunc, 0, len(targets))
	next := 0

	launch := func() {
		b := targets[next]
		idx := next
		next++
		lctx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		req, reqErr := http.NewRequestWithContext(lctx, http.MethodGet, b+r.URL.RequestURI(), nil)
		if reqErr != nil {
			results <- legResult{nil, b, idx, reqErr}
			return
		}
		copyRequestHeaders(req.Header, r.Header)
		p.metrics.backendRequest(b)
		go func() {
			res, doErr := p.client.Do(req)
			results <- legResult{res, b, idx, doErr}
		}()
	}

	launch()
	pending := 1

	var hedgeC <-chan time.Time
	if p.opts.HedgeDelay > 0 && len(targets) > 1 {
		timer := time.NewTimer(p.opts.HedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}

	var hspan *obs.Span
	var lastErr error
	for pending > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			if next < len(targets) {
				// The owner is slow: duplicate to the ring successor. The span
				// stays open until an answer arrives, so hedge latency is
				// visible in /debug/trace and the proxy.hedge histogram.
				_, hspan = obs.Start(ctx, "proxy.hedge",
					obs.String("slow", targets[0]), obs.String("to", targets[next]))
				p.metrics.hedge(targets[next])
				hedged = true
				launch()
				pending++
			}
		case leg := <-results:
			pending--
			if leg.err != nil {
				lastErr = leg.err
				p.metrics.backendError(leg.backend)
				if ctx.Err() == nil {
					// Request-path evidence the shard is gone: flip it down now
					// rather than waiting for the next health sweep.
					p.health.MarkDown(leg.backend, leg.err)
				}
				if next < len(targets) && ctx.Err() == nil {
					p.metrics.failover(targets[next])
					launch()
					pending++
				}
				continue
			}
			// First answer wins: cancel every losing leg, drain their results.
			if hspan != nil {
				hspan.SetAttr(obs.String("winner", leg.backend))
				hspan.End()
			}
			for i, cancel := range cancels {
				if i != leg.idx {
					cancel()
				}
			}
			if pending > 0 {
				go drainLegs(results, pending)
			}
			winnerCancel := cancels[leg.idx]
			return leg.resp, leg.backend, hedged, winnerCancel, nil
		}
	}
	if hspan != nil {
		hspan.End()
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no backend answered")
	}
	return nil, "", hedged, nil, lastErr
}

// drainLegs closes the losing legs' response bodies as their (cancelled)
// requests resolve.
func drainLegs(results <-chan legResult, n int) {
	for i := 0; i < n; i++ {
		if leg := <-results; leg.resp != nil {
			leg.resp.Body.Close()
		}
	}
}

// copyRequestHeaders forwards end-to-end request headers, dropping the
// hop-by-hop set.
func copyRequestHeaders(dst, src http.Header) {
	for k, vs := range src {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Te", "Trailer", "Transfer-Encoding", "Upgrade", "Proxy-Connection":
			continue
		}
		dst[k] = vs
	}
}

// handleAnyBackend forwards a fleet-agnostic route (like /v1/experiments —
// identical on every shard) to the first live backend.
func (p *Proxy) handleAnyBackend(w http.ResponseWriter, r *http.Request) {
	var target string
	for _, m := range p.table.Ring().Members() {
		if p.health.Up(m) {
			target = m
			break
		}
	}
	if target == "" {
		serve.ErrEnvelope{}.Write(w, http.StatusServiceUnavailable, "no live backend")
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target+r.URL.RequestURI(), nil)
	if err != nil {
		serve.ErrEnvelope{}.Write(w, http.StatusInternalServerError, err.Error())
		return
	}
	copyRequestHeaders(req.Header, r.Header)
	p.metrics.backendRequest(target)
	resp, err := p.client.Do(req)
	if err != nil {
		p.metrics.backendError(target)
		serve.ErrEnvelope{}.Write(w, http.StatusBadGateway, err.Error())
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		w.Header()[k] = vs
	}
	w.Header().Set("X-Schemaevo-Backend", target)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// fanOut performs one GET against every live backend concurrently and
// returns the bodies that came back 200, keyed by backend URL.
func (p *Proxy) fanOut(ctx context.Context, path string) map[string][]byte {
	var wg sync.WaitGroup
	var mu sync.Mutex
	out := map[string][]byte{}
	for _, m := range p.table.Ring().Members() {
		if !p.health.Up(m) {
			continue
		}
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, m+path, nil)
			if err != nil {
				return
			}
			p.metrics.backendRequest(m)
			resp, err := p.client.Do(req)
			if err != nil {
				p.metrics.backendError(m)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return
			}
			mu.Lock()
			out[m] = body
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	return out
}

// listBody is one backend's unpaginated listing.
type listBody[K cmp.Ordered] struct {
	Cached []K `json:"cached"`
	Stored []K `json:"stored"`
}

// listing aggregates a kind's listing across the fleet: the union of cached
// and stored ids plus the raw per-shard view. With ?limit= or ?cursor= the
// merged union is paginated proxy-side with the backends' cursor scheme —
// the fan-out is always unpaginated, because per-shard pages cannot be
// merged.
func listing[K cmp.Ordered](p *Proxy, kind serve.Kind[K]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		pr, err := kind.ParsePage(r)
		if err != nil {
			var zero K
			kind.Ref(zero).Write(w, http.StatusBadRequest, err.Error())
			return
		}
		var cached, stored []K
		shards := map[string]listBody[K]{}
		for backend, raw := range p.fanOut(r.Context(), "/v1/"+kind.Plural) {
			var b listBody[K]
			if err := json.Unmarshal(raw, &b); err != nil {
				continue
			}
			shards[backend] = b
			cached, stored = append(cached, b.Cached...), append(stored, b.Stored...)
		}
		w.Header().Set("Content-Type", "application/json")
		if !pr.Paged {
			json.NewEncoder(w).Encode(map[string]any{
				"cached": serve.SortedUnion(cached),
				"stored": serve.SortedUnion(stored),
				"shards": shards,
			})
			return
		}
		page, next := kind.Page(serve.SortedUnion(cached, stored), pr)
		json.NewEncoder(w).Encode(map[string]any{kind.Plural: page, "next_cursor": next})
	}
}

// handleHealth is the shard-aware health view: per-shard up/down with the
// identity fields from each backend's extended healthz, plus ring coverage
// — the fraction of the seed space a live shard answers for.
func (p *Proxy) handleHealth(w http.ResponseWriter, r *http.Request) {
	cur := p.table.Current()
	arcs := cur.Ring.Arcs()
	states := p.health.States()

	live := 0
	type shardView struct {
		shard.BackendState
		ArcFraction float64 `json:"arc_fraction"`
	}
	shards := make([]shardView, 0, len(states))
	for _, st := range states {
		if st.Up {
			live++
		}
		shards = append(shards, shardView{BackendState: st, ArcFraction: arcs[st.URL]})
	}
	coverage := cur.Ring.Coverage(p.health.Up)

	status := "ok"
	code := http.StatusOK
	switch {
	case live == 0:
		status = "down"
		code = http.StatusServiceUnavailable
	case live < cur.Ring.Size():
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status": status,
		"ring": map[string]any{
			"members":  cur.Ring.Size(),
			"live":     live,
			"version":  cur.Version,
			"vnodes":   cur.Ring.VNodes(),
			"coverage": coverage,
		},
		"shards": shards,
	})
}

// handleMetrics renders the proxy's Prometheus exposition.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.metrics.WriteTo(w, p.table, p.health, p.stages)
}

// handleStats aggregates /v1/debug/stats across the fleet: per-shard
// documents, a merged fleet-wide view (counts and sums add; averages are
// recomputed; quantiles don't merge and are omitted), and the proxy's own
// routing/hedging stage histograms.
func (p *Proxy) handleStats(w http.ResponseWriter, r *http.Request) {
	bodies := p.fanOut(r.Context(), "/v1/debug/stats")
	shards := map[string]serve.StatsDocument{}
	merged := serve.StatsDocument{Experiments: map[string]serve.StatEntry{}, Stages: map[string]serve.StatEntry{}}
	mergeInto := func(dst, src map[string]serve.StatEntry) {
		for k, e := range src {
			cur := dst[k]
			cur.Count += e.Count
			cur.SumSeconds += e.SumSeconds
			if cur.Count > 0 {
				cur.AvgSeconds = cur.SumSeconds / float64(cur.Count)
			}
			dst[k] = cur
		}
	}
	for backend, raw := range bodies {
		var doc serve.StatsDocument
		if err := json.Unmarshal(raw, &doc); err != nil {
			continue
		}
		shards[backend] = doc
		mergeInto(merged.Experiments, doc.Experiments)
		mergeInto(merged.Stages, doc.Stages)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"merged": merged,
		"shards": shards,
		"proxy":  map[string]any{"stages": serve.StageStats(p.stages)},
	})
}

// handleTrace routes /v1/debug/trace?seed=N to the seed's owner (hedged
// like any seed-keyed request) with a collecting tracer attached, then
// merges the proxy's own spans — proxy.route, proxy.hedge — into the
// backend's Chrome trace JSON as a second process (pid 2), so one Perfetto
// load shows the full proxy→backend tree of a hedged request.
func (p *Proxy) handleTrace(w http.ResponseWriter, r *http.Request) {
	seed := int64(1)
	if q := r.URL.Query().Get("seed"); q != "" {
		var err error
		if seed, err = serve.Seeds.Parse(q); err != nil {
			serve.ErrEnvelope{}.Write(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	tr := obs.NewTracer(obs.Options{Collect: true, MaxSpans: p.opts.TraceMaxSpans, Stages: p.stages})
	ctx := obs.WithTracer(r.Context(), tr)

	rec := newBufferedResponse()
	p.relayKeyed(ctx, rec, r, seed, serve.Seeds.Ref(seed))
	if rec.status != http.StatusOK {
		// Pass the failure through untouched (it is already an envelope).
		copyBuffered(w, rec)
		return
	}
	var trace struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(rec.body.Bytes(), &trace); err != nil {
		// Not trace JSON (unexpected backend) — relay verbatim.
		copyBuffered(w, rec)
		return
	}
	for _, ev := range proxyTraceEvents(tr) {
		raw, err := json.Marshal(ev)
		if err != nil {
			continue
		}
		trace.TraceEvents = append(trace.TraceEvents, raw)
	}
	if trace.DisplayTimeUnit == "" {
		trace.DisplayTimeUnit = "ms"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Schemaevo-Backend", rec.Header().Get("X-Schemaevo-Backend"))
	if rec.Header().Get("X-Schemaevo-Hedged") != "" {
		w.Header().Set("X-Schemaevo-Hedged", "1")
	}
	json.NewEncoder(w).Encode(trace)
}

// proxyTraceEvents renders the proxy-side spans as Chrome trace events on
// pid 2 (the backend's pipeline owns pid 1), timestamped relative to the
// earliest proxy span.
func proxyTraceEvents(tr *obs.Tracer) []map[string]any {
	records := tr.Records()
	if len(records) == 0 {
		return nil
	}
	epoch := records[0].Start
	for _, r := range records {
		if r.Start.Before(epoch) {
			epoch = r.Start
		}
	}
	events := make([]map[string]any, 0, len(records))
	for _, r := range records {
		ev := map[string]any{
			"name": r.Name,
			"cat":  "proxy",
			"ph":   "X",
			"ts":   float64(r.Start.Sub(epoch)) / float64(time.Microsecond),
			"dur":  float64(r.Duration()) / float64(time.Microsecond),
			"pid":  2,
			"tid":  r.ID, // one lane per span: hedged legs overlap, not nest
		}
		if len(r.Attrs) > 0 {
			args := map[string]any{}
			for _, a := range r.Attrs {
				args[a.Key] = a.Value()
			}
			ev["args"] = args
		}
		events = append(events, ev)
	}
	return events
}

// bufferedResponse captures a handler's response so /v1/debug/trace can
// inspect the backend's trace JSON before merging proxy spans into it.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{header: http.Header{}, status: http.StatusOK}
}

func (b *bufferedResponse) Header() http.Header         { return b.header }
func (b *bufferedResponse) WriteHeader(code int)        { b.status = code }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// copyBuffered relays a buffered response verbatim.
func copyBuffered(w http.ResponseWriter, b *bufferedResponse) {
	for k, vs := range b.header {
		w.Header()[k] = vs
	}
	w.WriteHeader(b.status)
	w.Write(b.body.Bytes())
}

// adminRequest is the membership-change body of POST /v1/admin/backends.
type adminRequest struct {
	Op  string `json:"op"` // "add" | "remove"
	URL string `json:"url"`
}

// handleAdmin applies a membership change. Consistent hashing keeps the
// disruption minimal: only the joining/leaving backend's arcs move.
func (p *Proxy) handleAdmin(w http.ResponseWriter, r *http.Request) {
	var req adminRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		serve.ErrEnvelope{}.Write(w, http.StatusBadRequest, "body must be JSON {op, url}")
		return
	}
	backend, err := normalizeBackend(req.URL)
	if err != nil {
		serve.ErrEnvelope{}.Write(w, http.StatusBadRequest, err.Error())
		return
	}
	var changed bool
	switch req.Op {
	case "add":
		p.health.Track(backend)
		changed = p.table.Add(backend)
	case "remove":
		changed = p.table.Remove(backend)
		p.health.Untrack(backend)
	default:
		serve.ErrEnvelope{}.Write(w, http.StatusBadRequest, fmt.Sprintf("op must be add or remove, got %q", req.Op))
		return
	}
	cur := p.table.Current()
	p.opts.Logger.Info("membership change",
		"op", req.Op, "backend", backend, "changed", changed,
		"members", cur.Ring.Size(), "version", cur.Version)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"changed": changed,
		"members": cur.Ring.Members(),
		"version": cur.Version,
	})
}
