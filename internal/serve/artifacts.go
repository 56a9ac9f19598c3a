package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// This file is what the seed kind adds to the unified resource model: one
// namespace of artifact keys shared by the HTTP handlers, the per-(seed,
// artifact) memo in the LRU, and the persistent store's snapshots, rendered
// lazily from a live study. Keys are the experiment selector keys, the
// three whole-study exports, and "figures/<name>.svg" for the SVG figures.

// Reserved artifact keys beyond the experiment registry.
const (
	artifactCSV  = "export.csv"
	artifactJSON = "export.json"
	artifactHTML = "report.html"
	figurePrefix = "figures/"
)

// knownArtifact reports whether key names a servable whole-study artifact
// (figures go through their own route and prefix).
func knownArtifact(key string) bool {
	switch key {
	case artifactCSV, artifactJSON, artifactHTML:
		return true
	}
	return study.KnownExperiment(key)
}

// streamableArtifact reports whether key has a chunked renderer — the big
// whole-study payloads that are worth writing to the client as they are
// produced instead of materialising first.
func streamableArtifact(key string) bool {
	return key == artifactCSV || key == artifactHTML
}

// contentTypeFor maps an artifact key to its Content-Type header.
func contentTypeFor(key string) string {
	switch {
	case key == artifactCSV:
		return "text/csv; charset=utf-8"
	case key == artifactJSON:
		return "application/json"
	case key == artifactHTML:
		return "text/html; charset=utf-8"
	case strings.HasPrefix(key, figurePrefix):
		return "image/svg+xml"
	}
	return "text/plain; charset=utf-8"
}

// renderArtifact renders one artifact from a completed study. Figure keys
// are not accepted here — figures render as a set via SVGFigures.
func renderArtifact(ctx context.Context, st *study.Study, key string) ([]byte, error) {
	switch key {
	case artifactCSV:
		return []byte(st.ExportCSV()), nil
	case artifactJSON:
		js, err := st.ExportJSON()
		if err != nil {
			return nil, err
		}
		return []byte(js), nil
	case artifactHTML:
		html, err := st.HTMLReport(ctx)
		if err != nil {
			return nil, err
		}
		return []byte(html), nil
	}
	if text, ok := st.RunExperiment(ctx, key); ok {
		return []byte(text), nil
	}
	return nil, fmt.Errorf("unknown artifact %q", key)
}

// renderAll produces the complete artifact set of a study — every
// registered experiment, the three exports, and all SVG figures — keyed the
// way the memo and the store snapshots share. This is what the write-behind
// persists, so a warm restart can serve any artifact without a pipeline run.
func renderAll(ctx context.Context, st *study.Study) (map[string][]byte, error) {
	keys := study.ExperimentKeys()
	out := make(map[string][]byte, len(keys)+3)
	for _, key := range append(keys, artifactCSV, artifactJSON, artifactHTML) {
		b, err := renderArtifact(ctx, st, key)
		if err != nil {
			return nil, fmt.Errorf("render %s: %w", key, err)
		}
		out[key] = b
	}
	for name, svg := range st.SVGFigures() {
		out[figurePrefix+name] = []byte(svg)
	}
	return out, nil
}

// newSeeds builds the seed kind over the seed store.
func newSeeds(s *Server) *resource[int64, *study.Study] {
	r := newResource[int64, *study.Study](s, Seeds, s.opts.Store)
	r.start = s.runPipeline
	r.snapshot = func(ctx context.Context, st *study.Study) (*store.Snapshot, error) {
		arts, err := s.render(ctx, st)
		if err != nil {
			return nil, err
		}
		return &store.Snapshot{Summary: st.Summary(), Artifacts: arts}, nil
	}
	r.storedIDs = func(ctx context.Context) ([]int64, error) { return r.store.List(ctx) }
	r.describe = func(seed int64, desc map[string]any) { desc["seed"] = seed }
	return r
}

// handleArtifact serves one whole-study artifact — the three exports or any
// experiment key — through the read path: memo hit → store snapshot
// restore → live study render (cache / singleflight / pipeline).
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	seed, ok := s.seeds.parse(w, r)
	if !ok {
		return
	}
	key := r.PathValue("key")
	if !knownArtifact(key) {
		Seeds.Ref(seed).Write(w, http.StatusNotFound,
			fmt.Sprintf("unknown artifact %q; experiment keys are listed at /v1/experiments", key))
		return
	}
	start := time.Now()
	if b, ok := s.seeds.lookup(r.Context(), seed, key); ok {
		w.Header().Set("Content-Type", contentTypeFor(key))
		w.Write(b)
	} else if err := s.renderTo(r.Context(), w, seed, key); err != nil {
		failRun(w, Seeds.Ref(seed), err)
		return
	}
	s.metrics.ObserveLatency(key, time.Since(start))
}

// renderTo answers a memo miss: it renders key from the seed's live study
// into the memo and the response. Rendering memoizes, so each artifact is
// produced at most once per cached entry, and it traces into the server's
// metrics-only tracer, so warm-cache requests still feed the
// experiment.<key> stage histograms. The big whole-study payloads
// (export.csv, report.html) stream to the client as they are produced — row
// by row for CSV, template chunk by template chunk for HTML — teeing into
// the memo copy, so the client sees first bytes while the render is still
// running. Bytes are identical either way.
func (s *Server) renderTo(ctx context.Context, w http.ResponseWriter, seed int64, key string) error {
	st, _, err := s.seeds.run(ctx, seed, s.runPipeline)
	if err != nil {
		return err
	}
	rctx := obs.WithTracer(ctx, s.tracer)
	if !streamableArtifact(key) {
		b, err := renderArtifact(rctx, st, key)
		if err != nil {
			return err
		}
		s.seeds.cache.PutArtifact(seed, key, b)
		w.Header().Set("Content-Type", contentTypeFor(key))
		w.Write(b)
		return nil
	}
	var buf bytes.Buffer
	mw := io.MultiWriter(&buf, w)
	w.Header().Set("Content-Type", contentTypeFor(key))
	if key == artifactCSV {
		err = st.WriteCSV(mw)
	} else {
		err = st.WriteHTMLReport(rctx, mw)
	}
	if err != nil {
		// Status and some bytes are already on the wire: the response is
		// truncated, which the client sees as a short read. Don't memoize.
		s.opts.Logger.Error("streamed render failed", "seed", seed, "artifact", key, "err", err)
		return nil
	}
	s.seeds.cache.PutArtifact(seed, key, buf.Bytes())
	return nil
}

// handleFigure serves one SVG figure. Figures render as a complete set, so
// a miss renders and memoizes every figure at once.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	seed, ok := s.seeds.parse(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	if !strings.HasSuffix(name, ".svg") {
		Seeds.Ref(seed).Write(w, http.StatusNotFound, "figure names end in .svg")
		return
	}
	start := time.Now()
	svg, ok, err := s.figureBytes(r.Context(), seed, name)
	if err != nil {
		failRun(w, Seeds.Ref(seed), err)
		return
	}
	if !ok {
		Seeds.Ref(seed).Write(w, http.StatusNotFound, fmt.Sprintf("unknown figure %q", name))
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Write(svg)
	s.metrics.ObserveLatency("figures", time.Since(start))
}

// figureBytes resolves one figure through the read path. The bool reports
// whether the figure name exists at all.
func (s *Server) figureBytes(ctx context.Context, seed int64, name string) ([]byte, bool, error) {
	key := figurePrefix + name
	if b, ok := s.seeds.lookup(ctx, seed, key); ok {
		return b, true, nil
	}
	// A restored snapshot carries the full figure set: a name missing there
	// is unknown, and a pipeline run would not change that.
	if s.seeds.cache.MissingStoredFigure(seed, key) {
		return nil, false, nil
	}
	st, _, err := s.seeds.run(ctx, seed, s.runPipeline)
	if err != nil {
		return nil, false, err
	}
	figs := st.SVGFigures()
	memo := make(map[string][]byte, len(figs))
	for n, svg := range figs {
		memo[figurePrefix+n] = []byte(svg)
	}
	s.seeds.cache.MergeArtifacts(seed, memo)
	svg, ok := figs[name]
	return []byte(svg), ok, nil
}
