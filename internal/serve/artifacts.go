package serve

import (
	"context"
	"path"

	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// This file is what the seed kind adds to the unified resource model: one
// namespace of artifact keys shared by the HTTP handlers, the LRU and the
// persistent store's snapshots, and the one render that fills it. Keys are
// the experiment selector keys, the three whole-study exports, and
// "figures/<name>.svg" for the SVG figures.

// Reserved artifact keys beyond the experiment registry.
const (
	artifactCSV  = "export.csv"
	artifactJSON = "export.json"
	artifactHTML = "report.html"
	figurePrefix = "figures/"
)

// seedArtifactKeys lists what every complete seed set holds besides its
// figures: the experiment texts in presentation order, then the exports.
var seedArtifactKeys = append(study.ExperimentKeys(), artifactCSV, artifactJSON, artifactHTML)

// contentTypeFor maps an artifact key of either kind to its Content-Type
// header by its extension; experiment texts have none.
func contentTypeFor(key string) string {
	switch path.Ext(key) {
	case ".csv":
		return "text/csv; charset=utf-8"
	case ".json":
		return "application/json"
	case ".html":
		return "text/html; charset=utf-8"
	case ".svg":
		return "image/svg+xml"
	}
	return "text/plain; charset=utf-8"
}

// renderAll renders a study's complete artifact set in one pass — every
// registered experiment, all SVG figures and the three exports — as the
// snapshot the cache and the store share. The study memoizes experiment
// texts, so report.html reuses the texts rendered here and no experiment
// runs twice.
func renderAll(ctx context.Context, st *study.Study) (*store.Snapshot, error) {
	exps := study.Experiments()
	figs := st.SVGFigures()
	arts := make(map[string][]byte, len(exps)+len(figs)+3)
	for _, e := range exps {
		arts[e.Key] = []byte(e.Render(ctx, st))
	}
	for name, svg := range figs {
		arts[figurePrefix+name] = []byte(svg)
	}
	html, err := st.HTMLReport(ctx)
	if err != nil {
		return nil, err
	}
	js, err := st.ExportJSON()
	if err != nil {
		return nil, err
	}
	arts[artifactHTML], arts[artifactJSON], arts[artifactCSV] = []byte(html), []byte(js), []byte(st.ExportCSV())
	return &store.Snapshot{Summary: st.Summary(), Artifacts: arts}, nil
}

// newSeeds builds the seed kind over the seed store. A seed's run is the
// pipeline; its render is renderAll (the Server.render seam) over the study
// the pipeline built, which nothing else keeps.
func newSeeds(s *Server) *resource[int64] {
	r := newResource(s, Seeds, s.opts.Store, seedArtifactKeys)
	r.start = func(ctx context.Context, seed int64) (renderFunc, error) {
		st, err := s.runPipeline(ctx, seed)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) (*store.Snapshot, error) { return s.render(ctx, st) }, nil
	}
	r.storedIDs = func(ctx context.Context) ([]int64, error) { return r.store.List(ctx) }
	r.describe = func(seed int64, desc map[string]any) { desc["seed"] = seed }
	return r
}
