// Package serve is the HTTP layer of schemaevod: it exposes the full study
// pipeline as a versioned /v1 API backed by a bounded LRU cache of rendered
// artifact sets, singleflight deduplication, and an optional persistent
// snapshot store — so any number of concurrent requests for one seed
// trigger exactly one pipeline run and one render of its full set, and a
// restarted daemon serves previously-seen seeds without any run at all. The package
// also carries the daemon's observability surface (/v1/healthz, /v1/metrics)
// and the graceful-shutdown loop. Pure stdlib.
//
// # API versioning
//
// The whole surface lives under /v1 (plus the stdlib /debug/pprof/ tree):
// a unified resource model with two resource collections — the built-in
// corpus seeds and user-ingested DDL histories — sharing one route shape:
//
//	POST /v1/histories                          ingest a DDL history upload
//	GET  /v1/{seeds|histories}                  list (?limit=&cursor= paginates)
//	GET  /v1/{seeds|histories}/{id}             one resource's summary
//	GET  /v1/{seeds|histories}/{id}/artifacts/{key}  one rendered artifact
//	GET  /v1/{seeds|histories}/{id}/events      SSE live stage progress
//	GET  /v1/seeds/{id}/figures/{name}          one SVG figure (seeds only)
//	GET  /v1/experiments                        experiment key list
//	GET  /v1/healthz                            readiness + cache digest + shard identity
//	GET  /v1/metrics                            Prometheus text exposition
//	GET  /v1/debug/trace                        instrumented pipeline run
//	GET  /v1/debug/stats                        latency/stage histogram join
//	GET  /v1/debug/events                       SSE firehose of all span events
//
// Errors use a uniform JSON envelope {error, code, resource, id}; seed
// routes additionally keep the pre-redesign seed field.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// Options configures a Server. The zero value serves with sensible
// defaults: an 8-seed cache, a 60-second request deadline, the real
// pipeline as runner, and no persistence.
type Options struct {
	// CacheSize bounds the number of seeds kept in memory (default 8). An
	// entry is one rendered artifact set — ~0.4 MB for seed 1 — whether a
	// run rendered it or a snapshot restored it. A seed's live study
	// (~165 MB) exists only while its one render runs.
	CacheSize int
	// Timeout is the per-request deadline. Requests that exceed it get 504,
	// but an underlying pipeline run keeps going and still fills the cache.
	Timeout time.Duration
	// Runner executes the pipeline for one seed (default: the real
	// pipeline, study.NewContext). The context carries the server's obs
	// tracer, so pipeline stages feed the schemaevo_stage_* metric families.
	// Tests substitute fakes; wrap a plain function with RunnerFunc.
	Runner Runner
	// Store persists rendered artifact sets as snapshots (nil = memory
	// only). It sits under the LRU as a read-through / write-behind tier:
	// misses consult it before running the pipeline, every run saves the
	// set it rendered, and a restarted daemon serves every stored seed
	// without a single run.
	Store store.Store
	// GC bounds the persistent store's retention (snapshot count and age).
	// It is applied by RunStoreGC and by the periodic background sweep, and
	// only has effect when Store implements store.Lifecycler (the Disk
	// backend does).
	GC store.GCPolicy
	// GCInterval is the cadence of the background retention sweep started by
	// the serving loop; each tick is jittered by up to +10% so a fleet
	// sharing a store directory doesn't sweep in lockstep. 0 disables the
	// background sweep (RunStoreGC can still be called explicitly).
	GCInterval time.Duration
	// PrewarmWorkers bounds the parallel Prewarm worker pool
	// (default GOMAXPROCS/2, minimum 1).
	PrewarmWorkers int
	// PipelineWorkers bounds the per-study worker pool inside the default
	// pipeline Runner (0 = GOMAXPROCS). Deterministic: any value yields
	// byte-identical artifacts. Ignored when a custom Runner is supplied.
	PipelineWorkers int
	// EventBuffer bounds each SSE subscriber's event ring (the span event
	// stream behind /v1/seeds/{seed}/events and /v1/debug/events). A slow
	// consumer loses its oldest buffered events, never the publisher's time
	// (0 = obs.DefaultEventBuffer).
	EventBuffer int
	// HistoryStore persists ingested-history results, keyed by the 64-bit
	// truncation of the history's content address (nil = memory only). It
	// must be a separate namespace from Store — the daemon opens it under
	// <store-dir>/histories — because seed numbers and truncated hashes
	// share the int64 key space.
	HistoryStore store.Store
	// MaxUploadBytes bounds a POST /v1/histories request body; beyond it the
	// upload is rejected with 413 (default 8 MiB, negative = that default).
	MaxUploadBytes int64
	// TraceMaxSpans head-samples the collecting tracer behind /v1/debug/trace:
	// at most this many spans are retained per trace, keeping the response
	// bounded under deep proxy→backend span trees (0 = DefaultTraceMaxSpans;
	// negative = unlimited). Dropped spans count into
	// schemaevo_trace_dropped_spans_total.
	TraceMaxSpans int
	// Logger receives the daemon's structured log lines (nil = silent).
	// Pipeline runs log with the seed as correlation key.
	Logger *slog.Logger
}

// Server serves rendered study artifacts over HTTP. Create with New; the type is an
// http.Handler.
type Server struct {
	opts      Options
	seeds     *resource[int64]  // built-in corpus seeds
	histories *resource[string] // ingested DDL histories
	metrics   *Metrics
	tracer    *obs.Tracer // metrics-only: feeds stage histograms, retains no spans
	bus       *obs.Bus    // live span events for the SSE endpoints
	mux       *http.ServeMux
	persistWG sync.WaitGroup // runs in flight through their render and save, both kinds

	// render produces a study's complete artifact set, once per seed run.
	// It is renderAll in production; tests substitute a stub so serving and
	// persistence mechanics can be exercised without paying for real
	// renders.
	render func(ctx context.Context, st *study.Study) (*store.Snapshot, error)
}

// New builds a Server from opts.
func New(opts Options) *Server {
	if opts.CacheSize <= 0 {
		opts.CacheSize = 8
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	if opts.Runner == nil {
		opts.Runner = pipelineRunner{workers: opts.PipelineWorkers}
	}
	if opts.TraceMaxSpans == 0 {
		opts.TraceMaxSpans = DefaultTraceMaxSpans
	} else if opts.TraceMaxSpans < 0 {
		opts.TraceMaxSpans = 0 // obs: 0 = unlimited
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = DefaultMaxUploadBytes
	}
	s := &Server{opts: opts, metrics: NewMetrics(), render: renderAll, bus: obs.NewBus()}
	s.seeds, s.histories = newSeeds(s), newHistories(s)
	// The shared tracer covers render-time spans (experiment.<key>); its
	// events are unkeyed (seed 0) and reach only the firehose. Runs get
	// per-run tracers with their key stamped on — see runContext.
	s.tracer = obs.NewTracer(obs.Options{Stages: s.metrics.stages, Logger: opts.Logger, Bus: s.bus})

	mux := http.NewServeMux()
	s.seeds.mount(mux)
	mux.HandleFunc("GET /v1/seeds/{id}/figures/{name}", s.seeds.handleArtifact)
	s.histories.mount(mux)
	mux.HandleFunc("POST /v1/histories", s.handleIngest)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	registerDebug(mux, s)
	s.mux = mux
	return s
}

// Metrics exposes the server's counters, mainly for tests and prewarm
// reporting.
func (s *Server) Metrics() *Metrics { return s.metrics }

// StatusRecorder captures the response code for the error counter.
type StatusRecorder struct {
	http.ResponseWriter
	Status int
}

func (r *StatusRecorder) WriteHeader(code int) {
	r.Status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so event streams can flow through
// the recorder.
func (r *StatusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// ServeHTTP counts the request, tracks the in-flight gauge, and applies the
// per-request deadline before dispatching to the route table. The SSE event
// streams are exempt from the deadline: they live exactly as long as the
// watched run (seed streams) or the client's interest (the firehose).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	ctx := r.Context()
	if !IsEventStreamPath(r.URL.Path) {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.Timeout)
		defer cancel()
	}

	rec := &StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
	s.mux.ServeHTTP(rec, r.WithContext(ctx))
	if rec.Status >= 400 {
		s.metrics.errors.Add(1)
	}
}

// runPipeline is the seed kind's run: one pipeline execution through the
// configured Runner, counted in the pipeline gauges.
func (s *Server) runPipeline(ctx context.Context, seed int64) (*study.Study, error) {
	s.metrics.pipelineRuns.Add(1)
	s.metrics.pipelineInflight.Add(1)
	defer s.metrics.pipelineInflight.Add(-1)
	return s.opts.Runner.Run(ctx, seed)
}

// runContext is the detached context of one run: a per-run tracer feeds the
// shared stage registry like the server's own and additionally stamps key
// on every live event, so SSE watchers see the run's stages as they happen.
func (s *Server) runContext(key int64) context.Context {
	tr := obs.NewTracer(obs.Options{Stages: s.metrics.stages, Logger: s.opts.Logger, Bus: s.bus, Seed: key})
	return obs.WithLogger(obs.WithTracer(context.Background(), tr), s.opts.Logger)
}

// Prewarm makes the given seeds servable ahead of traffic using a bounded
// parallel worker pool (the study.MultiSeed semaphore pattern). Seeds
// present in the store are restored without a pipeline run; the rest run
// concurrently, deduplicated like any other lookup. Prewarm returns once
// every seed is warm and every snapshot save has reached the store.
func (s *Server) Prewarm(ctx context.Context, seeds []int64) error {
	workers := s.opts.PrewarmWorkers
	if workers <= 0 {
		workers = max(1, runtime.GOMAXPROCS(0)/2)
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			if err := s.seeds.ensure(ctx, seed); err != nil {
				errs[i] = fmt.Errorf("serve: prewarm seed %d: %w", seed, err)
				return
			}
			s.opts.Logger.Info("prewarmed", "seed", seed,
				"took", time.Since(start).Round(time.Millisecond))
		}(i, seed)
	}
	wg.Wait()
	s.SyncStore() // prewarmed seeds are durable once Prewarm returns
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SyncStore blocks until every started run has rendered and saved its
// set. Prewarm calls it so prewarmed seeds are durable before traffic; the
// graceful-shutdown path calls it so a drained daemon leaves a complete
// store behind.
func (s *Server) SyncStore() { s.persistWG.Wait() }

// handleExperiments lists the experiment keys the artifact endpoint accepts.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(study.ExperimentKeys())
}

// handleHealth reports readiness plus a cache digest and the shard-identity
// fields (snapshot_count, store_path, pipeline_workers) the proxy's
// aggregation uses to tell backends apart without scraping /v1/metrics.
// During graceful drain it turns 503 so load balancers stop sending new work.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	code := http.StatusOK
	if s.metrics.shuttingDown.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	workers := s.opts.PipelineWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	body := map[string]any{
		"status":           status,
		"cached_seeds":     s.seeds.cache.Seeds(),
		"cached_histories": s.histories.cache.Len(),
		"inflight":         s.metrics.inflight.Load(),
		"snapshot_count":   0,
		"store_path":       "",
		"pipeline_workers": workers,
	}
	if s.opts.Store != nil {
		if stored, err := s.opts.Store.List(r.Context()); err == nil {
			body["stored_seeds"] = len(stored)
			body["snapshot_count"] = len(stored)
		}
		if d, ok := s.opts.Store.(interface{ Dir() string }); ok {
			body["store_path"] = d.Dir()
		}
	}
	if s.opts.HistoryStore != nil {
		if stored, err := s.opts.HistoryStore.List(r.Context()); err == nil {
			body["stored_histories"] = len(stored)
		}
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w)
}

// ListenAndServe runs srv on addr until ctx is canceled (SIGINT/SIGTERM in
// the daemon), then drains in-flight requests for up to drain before
// forcing connections closed. logger receives progress lines (nil = silent).
func ListenAndServe(ctx context.Context, addr string, srv *Server, drain time.Duration, logger *slog.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	return serveListener(ctx, ln, srv, drain, logger)
}

// serveListener is ListenAndServe on an established listener — the seam
// tests use to get an ephemeral port.
func serveListener(ctx context.Context, ln net.Listener, srv *Server, drain time.Duration, logger *slog.Logger) error {
	if logger == nil {
		logger = obs.NopLogger()
	}
	srv.StartGC(ctx) // periodic retention sweep, if configured
	hs := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("schemaevod listening",
			"addr", ln.Addr().String(), "cache", srv.opts.CacheSize, "timeout", srv.opts.Timeout)
		errCh <- hs.Serve(ln)
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	srv.metrics.shuttingDown.Store(true)
	logger.Info("shutdown signal received", "drain", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := hs.Shutdown(shutdownCtx)
	// Let in-flight snapshot saves land — even after a forced drain: the
	// next daemon generation starts warm from whatever this one finished
	// computing, and abandoning a save wastes the render it already paid for.
	srv.SyncStore()
	if err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	logger.Info("drained cleanly")
	return nil
}
