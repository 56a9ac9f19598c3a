package study

import (
	"context"

	"github.com/schemaevo/schemaevo/internal/obs"
)

// This file is the canonical experiment registry: every rendered artifact of
// the study keyed by the selector name the CLI and the serving daemon share.
// Adding an experiment means adding one row here; studyrun, schemaevod and
// Everything() all follow.

// Experiment is one named driver of the study: a stable selector key plus
// the function rendering its text artifact.
type Experiment struct {
	Key string
	Run func(*Study, context.Context) string
}

// Render runs the experiment under the obs span "experiment.<key>", so both
// the CLI trace and the daemon's stage metrics break latency down per
// experiment. The text is memoized on s: a later Render of the same
// experiment on s returns it without running (and without a span). A text
// rendered under a ctx that was cancelled by the end of the run may be
// partial and is not memoized.
func (e Experiment) Render(ctx context.Context, s *Study) string {
	s.textsMu.Lock()
	text, ok := s.texts[e.Key]
	s.textsMu.Unlock()
	if ok {
		return text
	}
	ctx, span := obs.Start(ctx, "experiment."+e.Key)
	text = e.Run(s, ctx)
	span.End()
	if ctx.Err() == nil {
		s.textsMu.Lock()
		if s.texts == nil {
			s.texts = map[string]string{}
		}
		s.texts[e.Key] = text
		s.textsMu.Unlock()
	}
	return text
}

// experimentTable lists every experiment in presentation order (E01–E26 of
// DESIGN.md, paper artifacts first, extensions after).
var experimentTable = []Experiment{
	{"funnel", (*Study).RunFunnel},
	{"fig1", (*Study).RunFig1},
	{"fig2", (*Study).RunFig2},
	{"taxonomy", (*Study).RunTaxonomy},
	{"fig4", (*Study).RunFig4},
	{"exemplars", (*Study).RunExemplars},
	{"fig10", (*Study).RunFig10},
	{"fig11", (*Study).RunFig11},
	{"fig12", (*Study).RunFig12},
	{"fig13", (*Study).RunFig13},
	{"kw", (*Study).RunOverallKW},
	{"shapiro", (*Study).RunShapiro},
	{"durations", (*Study).RunDurations},
	{"reedlimit", (*Study).RunReedLimit},
	{"fkeys", (*Study).RunForeignKeys},
	{"tables", (*Study).RunTablePatterns},
	{"granularity", (*Study).RunGranularity},
	{"sensitivity", (*Study).RunSensitivity},
	{"forecast", (*Study).RunForecast},
	{"tempo", (*Study).RunTempo},
	{"shapes", (*Study).RunShapes},
	{"dialects", (*Study).RunDialects},
}

// Experiments returns the full driver table in presentation order. The
// returned slice is a copy; callers may reorder it freely.
func Experiments() []Experiment {
	return append([]Experiment(nil), experimentTable...)
}

// ExperimentKeys returns the selector keys in presentation order.
func ExperimentKeys() []string {
	keys := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		keys[i] = e.Key
	}
	return keys
}

// KnownExperiment reports whether key names a registered experiment.
func KnownExperiment(key string) bool {
	for _, e := range experimentTable {
		if e.Key == key {
			return true
		}
	}
	return false
}

// RunExperiment renders the artifact for one experiment key. It reports
// ok = false for unknown keys.
func (s *Study) RunExperiment(ctx context.Context, key string) (text string, ok bool) {
	for _, e := range experimentTable {
		if e.Key == key {
			return e.Render(ctx, s), true
		}
	}
	return "", false
}
