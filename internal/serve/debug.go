package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/store"
)

// This file is the daemon's debugging surface: the stdlib pprof handlers
// (mounted explicitly because the server runs its own mux, not
// http.DefaultServeMux) and the trace endpoint, which executes one fully
// instrumented pipeline run and returns the Chrome trace_event JSON — load
// it in chrome://tracing or https://ui.perfetto.dev to see the stage
// breakdown of a live deployment.

// DefaultTraceMaxSpans is the head-sampling bound applied to /v1/debug/trace
// when Options.TraceMaxSpans is unset. A single instrumented pipeline run
// emits ~600 spans; 4096 leaves room for several nested runs (the proxy's
// merged proxy→backend trees) while keeping the JSON response a few MB at
// worst.
const DefaultTraceMaxSpans = 4096

// registerDebug mounts the debug endpoints on mux.
func registerDebug(mux *http.ServeMux, s *Server) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /v1/debug/trace", s.handleDebugTrace)
	mux.HandleFunc("GET /v1/debug/scrub", s.handleDebugScrub)
	mux.HandleFunc("GET /v1/debug/stats", s.handleDebugStats)
	mux.HandleFunc("GET /v1/debug/events", s.handleDebugEvents)
}

// handleDebugStats serves the latency/stage join: one JSON document
// answering "where does a cold request spend its time" by putting the
// per-experiment request latency histograms next to the per-stage pipeline
// duration histograms, without a /v1/metrics scrape-and-parse round trip.
func (s *Server) handleDebugStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.metrics.StatsDocument())
}

// handleDebugScrub runs one on-demand integrity scrub of the snapshot store
// and reports its accounting as JSON. Damaged snapshots are deleted, so the
// next request for an affected seed degrades to a clean cold run instead of
// a corrupt read. Stores without a lifecycle surface respond 501.
func (s *Server) handleDebugScrub(w http.ResponseWriter, r *http.Request) {
	res, err := s.RunStoreScrub(r.Context())
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrNoLifecycle) {
			code = http.StatusNotImplemented
		}
		ErrEnvelope{}.Write(w, code, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// handleDebugTrace serves the trace endpoint (?seed=N): it runs one pipeline
// execution for the seed with a collecting tracer attached and responds with
// the Chrome trace JSON. The run bypasses the cache on purpose — a cached
// study has no spans to show — but the response waits until its result is
// rendered into the cache, and the set is saved, so the endpoint doubles as
// an instrumented prewarm. Stage durations feed the shared /v1/metrics
// histograms like any other run.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	seed := int64(1)
	if q := r.URL.Query().Get("seed"); q != "" {
		var err error
		if seed, err = Seeds.Parse(q); err != nil {
			ErrEnvelope{}.Write(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	tr := obs.NewTracer(obs.Options{Collect: true, MaxSpans: s.opts.TraceMaxSpans,
		Stages: s.metrics.stages, Logger: s.opts.Logger, Bus: s.bus, Seed: seed})
	ctx := obs.WithLogger(obs.WithTracer(r.Context(), tr), s.opts.Logger)
	st, err := s.runPipeline(ctx, seed)
	if err != nil {
		failRun(w, Seeds.Ref(seed), err)
		return
	}
	f := s.seeds.adopt(seed, func(ctx context.Context) (*store.Snapshot, error) { return s.render(ctx, st) })
	if _, err := s.seeds.await(r.Context(), seed, f); err != nil {
		failRun(w, Seeds.Ref(seed), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := tr.WriteChromeTrace(w); err != nil {
		s.opts.Logger.Error("debug trace export failed", "seed", seed, "err", err)
	}
}
