package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// stageBuckets are the histogram upper bounds in seconds. Pipeline stages
// span five orders of magnitude: per-project parse/diff work lands in the
// sub-millisecond buckets, whole-corpus stages in the multi-second ones.
var stageBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// StageRegistry accumulates per-stage duration histograms across pipeline
// runs. One process-wide default (Stages()) backs the daemon's /metrics
// exposition; tests build private registries.
type StageRegistry struct {
	mu     sync.RWMutex
	stages map[string]*Histogram
}

// NewStageRegistry returns an empty registry.
func NewStageRegistry() *StageRegistry {
	return &StageRegistry{stages: map[string]*Histogram{}}
}

// defaultStages is the process-wide registry every metrics-only tracer
// feeds by default.
var defaultStages = NewStageRegistry()

// Stages returns the process-wide default stage registry.
func Stages() *StageRegistry { return defaultStages }

// Observe records one stage execution.
func (r *StageRegistry) Observe(stage string, d time.Duration) {
	r.mu.RLock()
	h := r.stages[stage]
	r.mu.RUnlock()
	if h == nil {
		r.mu.Lock()
		if h = r.stages[stage]; h == nil {
			h = NewHistogram(stageBuckets)
			r.stages[stage] = h
		}
		r.mu.Unlock()
	}
	h.Observe(d)
}

// StageSnapshot is one stage's accumulated state.
type StageSnapshot struct {
	Name  string
	Count int64
	Sum   time.Duration
}

// Avg is the mean stage duration.
func (s StageSnapshot) Avg() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Snapshot returns every stage's count and total duration, sorted by name.
func (r *StageRegistry) Snapshot() []StageSnapshot {
	r.mu.RLock()
	out := make([]StageSnapshot, 0, len(r.stages))
	for name, h := range r.stages {
		out = append(out, StageSnapshot{
			Name:  name,
			Count: h.Count(),
			Sum:   h.Sum(),
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format as two families: schemaevo_stage_duration_seconds (histogram,
// labelled by stage) and schemaevo_stage_runs_total (counter). The serving
// layer appends this to its /metrics output.
func (r *StageRegistry) WritePrometheus(w io.Writer) (int64, error) {
	r.mu.RLock()
	names := make([]string, 0, len(r.stages))
	for name := range r.stages {
		names = append(names, name)
	}
	sort.Strings(names)
	hists := make([]*Histogram, len(names))
	for i, name := range names {
		hists[i] = r.stages[name]
	}
	r.mu.RUnlock()

	var n int64
	if len(names) == 0 {
		return 0, nil
	}
	written, err := fmt.Fprint(w,
		"# HELP schemaevo_stage_duration_seconds Pipeline stage duration.\n"+
			"# TYPE schemaevo_stage_duration_seconds histogram\n")
	n += int64(written)
	if err != nil {
		return n, err
	}
	for i, name := range names {
		written, err := hists[i].WritePrometheus(w, "schemaevo_stage_duration_seconds", fmt.Sprintf("stage=%q", name))
		n += written
		if err != nil {
			return n, err
		}
	}
	written, err = fmt.Fprint(w,
		"# HELP schemaevo_stage_runs_total Pipeline stage executions.\n"+
			"# TYPE schemaevo_stage_runs_total counter\n")
	n += int64(written)
	if err != nil {
		return n, err
	}
	for i, name := range names {
		written, err := fmt.Fprintf(w, "schemaevo_stage_runs_total{stage=%q} %d\n", name, hists[i].Count())
		n += int64(written)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
