// Package history models schema histories — the ordered list of versions of
// one DDL file — and computes their transitions: parsed schema pairs plus
// the quantified delta between them.
//
// This is the bridge between the repository substrate (gitstore) and the
// measurement layer (core): it applies the paper's version-level filters
// (empty files and versions without CREATE TABLE statements are dropped) and
// produces, for every surviving transition, timing information, schema sizes
// and the attribute-level delta.
package history

import (
	"context"
	"fmt"
	"time"

	"github.com/schemaevo/schemaevo/internal/diff"
	"github.com/schemaevo/schemaevo/internal/gitstore"
	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/pool"
	"github.com/schemaevo/schemaevo/internal/schema"
	"github.com/schemaevo/schemaevo/internal/sqlparse"
)

// Version is one commit of the DDL file.
type Version struct {
	// ID is the sequential index in the extracted history (0 = V0).
	ID int
	// When is the commit timestamp.
	When time.Time
	// SQL is the full text of the DDL file at this version.
	SQL string
	// Commit and Message identify the originating commit, when extracted
	// from a repository.
	Commit  string
	Message string
}

// History is a schema history plus the project-level context needed for the
// study's duration and commit-share measures.
type History struct {
	Project  string
	Path     string
	Versions []Version

	// Dialect names the SQL dialect the versions are written in (one of
	// sqlparse.DialectNames). Empty means MySQL — the study's default and
	// the meaning of every history recorded before this field existed.
	Dialect string

	// ProjectCommits is the total number of commits in the whole project
	// (the denominator of the DDL-commit-share measure).
	ProjectCommits int
	// ProjectStart / ProjectEnd delimit the Project Update Period (PUP).
	ProjectStart time.Time
	ProjectEnd   time.Time
}

// dialect resolves the history's dialect, falling back to MySQL for empty
// or unknown names (tolerance: analysis should degrade, not fail).
func (h *History) dialect() *sqlparse.Dialect {
	if d, ok := sqlparse.DialectByName(h.Dialect); ok {
		return d
	}
	return sqlparse.MySQL
}

// FromRepo extracts the history of the DDL file at path from a repository,
// reading the full first-parent log from HEAD. Project-level measures are
// derived from the same walk.
func FromRepo(repo *gitstore.Repo, project, path string) (*History, error) {
	return FromRepoContext(context.Background(), repo, project, path)
}

// FromRepoContext is FromRepo under the obs span "gitstore.walk".
func FromRepoContext(ctx context.Context, repo *gitstore.Repo, project, path string) (*History, error) {
	_, span := obs.Start(ctx, "gitstore.walk", obs.String("project", project))
	defer span.End()
	head, err := repo.Head()
	if err != nil {
		return nil, fmt.Errorf("history: %s: %w", project, err)
	}
	return fromCommit(repo, project, path, head)
}

// FromRepoBranch extracts the history from a specific branch instead of
// HEAD — the single-branch alternative the paper's threats-to-validity
// section discusses for non-linear git histories.
func FromRepoBranch(repo *gitstore.Repo, project, branch, path string) (*History, error) {
	head, err := repo.ResolveRef("refs/heads/" + branch)
	if err != nil {
		return nil, fmt.Errorf("history: %s: branch %s: %w", project, branch, err)
	}
	return fromCommit(repo, project, path, head)
}

func fromCommit(repo *gitstore.Repo, project, path string, head gitstore.Hash) (*History, error) {
	chain, err := repo.Log(head)
	if err != nil {
		return nil, fmt.Errorf("history: %s: %w", project, err)
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("history: %s: empty repository", project)
	}
	files, err := repo.PathHistory(head, path)
	if err != nil {
		return nil, fmt.Errorf("history: %s: %w", project, err)
	}
	h := &History{
		Project:        project,
		Path:           path,
		ProjectCommits: len(chain),
		ProjectStart:   chain[0].Committer.When,
		ProjectEnd:     chain[len(chain)-1].Committer.When,
	}
	for i, fv := range files {
		h.Versions = append(h.Versions, Version{
			ID:      i,
			When:    fv.When,
			SQL:     string(fv.Content),
			Commit:  fv.Commit.String(),
			Message: fv.Message,
		})
	}
	return h, nil
}

// Filter applies the paper's version-level cleaning: empty versions and
// versions whose SQL contains no CREATE TABLE statement are removed, and IDs
// are renumbered. It returns the number of versions dropped.
func (h *History) Filter() int {
	kept := h.Versions[:0]
	dropped := 0
	d := h.dialect()
	for _, v := range h.Versions {
		if len(v.SQL) == 0 || !sqlparse.ParseDialect(v.SQL, d).HasCreateTable() {
			dropped++
			continue
		}
		kept = append(kept, v)
	}
	for i := range kept {
		kept[i].ID = i
	}
	h.Versions = kept
	return dropped
}

// IsHistoryLess reports whether the history has at most one version — the
// paper's "rigid" projects, excluded from the 195-project study set.
func (h *History) IsHistoryLess() bool { return len(h.Versions) <= 1 }

// SchemaUpdatePeriod returns the time span between the first and last commit
// of the schema file.
func (h *History) SchemaUpdatePeriod() time.Duration {
	if len(h.Versions) < 2 {
		return 0
	}
	return h.Versions[len(h.Versions)-1].When.Sub(h.Versions[0].When)
}

// ProjectUpdatePeriod returns the time span of the whole project history.
func (h *History) ProjectUpdatePeriod() time.Duration {
	return h.ProjectEnd.Sub(h.ProjectStart)
}

// Transition is the evolution step from version FromID to version ToID.
type Transition struct {
	FromID int
	ToID   int
	// When is the commit time of the destination version.
	When time.Time
	// DaysSinceV0 is the distance of the destination commit from V0.
	DaysSinceV0 float64
	// Delta quantifies the attribute-level changes.
	Delta *diff.Delta
	// Schema sizes on both sides of the transition.
	TablesBefore, TablesAfter int
	AttrsBefore, AttrsAfter   int
}

// Analysis is a fully processed schema history: the parsed schema of every
// version and the transition chain.
type Analysis struct {
	History     *History
	Schemas     []*schema.Schema
	Transitions []Transition
	// ParseErrors counts statements skipped by the tolerant parser over the
	// whole history, a data-quality signal surfaced by the CLI tools.
	ParseErrors int

	// errs holds ParseErrors per version, so derived analyses (Prefix,
	// Squash) report the count a from-scratch analysis would. It is nil in
	// an Analysis built by hand, whose derived analyses then count none.
	errs []int
}

// Analyze parses every version and computes all transitions. The history
// should already be filtered; Analyze does not mutate it.
func Analyze(h *History) (*Analysis, error) {
	return AnalyzeContext(context.Background(), h)
}

// AnalyzeContext is Analyze under the obs span "history.analyze", with the
// parse loop and the transition loop as child spans ("sqlparse.parse" and
// "diff.compute") so per-project profiles split SQL parsing from delta
// computation.
func AnalyzeContext(ctx context.Context, h *History) (*Analysis, error) {
	a, _, err := analyze(ctx, h, false)
	return a, err
}

// AnalyzeFiltered is Filter followed by AnalyzeContext with every version
// parsed once: the parse that decides whether a version is kept is the one
// its schema comes from. Like Filter it drops versions from h in place and
// renumbers the rest; it returns the analysis of what is kept and the
// number of versions dropped. ParseErrors counts the kept versions only.
func AnalyzeFiltered(ctx context.Context, h *History) (*Analysis, int, error) {
	return analyze(ctx, h, true)
}

// analyze is the one parse-and-diff loop behind AnalyzeContext and
// AnalyzeFiltered; filter applies Filter's rule to each parse result.
func analyze(ctx context.Context, h *History, filter bool) (*Analysis, int, error) {
	ctx, span := obs.Start(ctx, "history.analyze",
		obs.String("project", h.Project), obs.Int("versions", int64(len(h.Versions))))
	defer span.End()
	if len(h.Versions) == 0 {
		return nil, 0, fmt.Errorf("history: %s: no versions to analyze", h.Project)
	}
	a := &Analysis{History: h}
	a.Schemas = make([]*schema.Schema, 0, len(h.Versions))
	a.errs = make([]int, 0, len(h.Versions))
	_, parseSpan := obs.Start(ctx, "sqlparse.parse")
	var sqlBytes int64
	d := h.dialect()
	kept, dropped := h.Versions[:0], 0
	for _, v := range h.Versions {
		sqlBytes += int64(len(v.SQL))
		if filter && len(v.SQL) == 0 {
			dropped++
			continue
		}
		res := sqlparse.ParseDialect(v.SQL, d)
		if filter {
			if !res.HasCreateTable() {
				dropped++
				continue
			}
			v.ID = len(kept)
			kept = append(kept, v)
		}
		a.ParseErrors += len(res.Errors)
		a.errs = append(a.errs, len(res.Errors))
		a.Schemas = append(a.Schemas, res.Schema)
	}
	parseSpan.SetAttr(obs.Int("bytes", sqlBytes))
	parseSpan.End()
	if filter {
		h.Versions = kept
		if len(kept) == 0 {
			return nil, dropped, fmt.Errorf("history: %s: no usable versions to analyze", h.Project)
		}
	}
	_, diffSpan := obs.Start(ctx, "diff.compute")
	// One Computer per analysis: its scratch buffers amortise over the
	// whole transition chain, and each analysis (= each pool worker)
	// owns its own, so the fan-out shares nothing.
	cp := diff.NewComputer(diff.Options{})
	a.link(func(i int) *diff.Delta { return cp.Compute(a.Schemas[i-1], a.Schemas[i]) })
	diffSpan.SetAttr(obs.Int("transitions", int64(len(a.Transitions))))
	diffSpan.End()
	return a, dropped, nil
}

// link builds the transition chain over a's versions and schemas; delta
// returns the delta from schema i-1 to schema i.
func (a *Analysis) link(delta func(i int) *diff.Delta) {
	vs := a.History.Versions
	if n := len(a.Schemas); n > 1 {
		a.Transitions = make([]Transition, 0, n-1)
	}
	for i := 1; i < len(a.Schemas); i++ {
		old, new := a.Schemas[i-1], a.Schemas[i]
		a.Transitions = append(a.Transitions, Transition{
			FromID:       i - 1,
			ToID:         i,
			When:         vs[i].When,
			DaysSinceV0:  vs[i].When.Sub(vs[0].When).Hours() / 24,
			Delta:        delta(i),
			TablesBefore: old.NumTables(),
			TablesAfter:  new.NumTables(),
			AttrsBefore:  old.NumColumns(),
			AttrsAfter:   new.NumColumns(),
		})
	}
}

// Prefix returns the analysis of the history's first k versions — the
// "what was observable after k commits" view used by the forecasting
// experiment — without parsing or diffing anything: it shares a's parsed
// schemas and transitions. k is clamped to [1, len(Schemas)]. The result
// equals a from-scratch analysis of the truncated history; its slices are
// capped, so appending to them never writes into a's.
func (a *Analysis) Prefix(k int) *Analysis {
	k = max(1, min(k, len(a.Schemas)))
	h := *a.History
	h.Versions = a.History.Versions[:k:k]
	p := &Analysis{History: &h, Schemas: a.Schemas[:k:k], Transitions: a.Transitions[: k-1 : k-1]}
	if a.errs != nil {
		p.errs = a.errs[:k:k]
	}
	for _, n := range p.errs {
		p.ParseErrors += n
	}
	return p
}

// Squash returns the analysis of the history with runs of commits closer
// than window collapsed into their final state. This models teams that
// batch changes into larger commits; the paper's threats-to-validity
// section argues commit habits do not change a project's aggregate
// profile, and the E21 experiment uses Squash to test that claim.
//
// A run is a maximal sequence of versions each less than window after the
// previous original version; it is kept as its last member, so the SUP end
// stays put and V0 moves to the last member of the first run. IDs are
// renumbered and transition times re-measured from the new V0. Parsed
// schemas are shared with a; a kept pair that was adjacent reuses a's
// delta, and only the pairs a run skips over are diffed. A window ≤ 0
// keeps every version. The result equals a from-scratch analysis of the
// squashed history.
func (a *Analysis) Squash(window time.Duration) *Analysis {
	vs := a.History.Versions
	var keep []int // index in vs of each run's last member
	for i := range vs {
		if n := len(keep); n > 0 && window > 0 && vs[i].When.Sub(vs[i-1].When) < window {
			keep[n-1] = i
			continue
		}
		keep = append(keep, i)
	}
	h := *a.History
	h.Versions = make([]Version, len(keep))
	s := &Analysis{History: &h, Schemas: make([]*schema.Schema, len(keep))}
	for j, i := range keep {
		h.Versions[j] = vs[i]
		h.Versions[j].ID = j
		s.Schemas[j] = a.Schemas[i]
		if a.errs != nil {
			s.errs = append(s.errs, a.errs[i])
			s.ParseErrors += a.errs[i]
		}
	}
	var cp *diff.Computer
	s.link(func(j int) *diff.Delta {
		if from, to := keep[j-1], keep[j]; to == from+1 {
			return a.Transitions[from].Delta
		}
		if cp == nil {
			cp = diff.NewComputer(diff.Options{})
		}
		return cp.Compute(s.Schemas[j-1], s.Schemas[j])
	})
	return s
}

// AnalyzeAll analyzes every history on a bounded worker pool and
// returns the analyses in input order. workers follows pool.Workers
// semantics (0 = GOMAXPROCS); any worker count yields identical
// results, since each history is analyzed independently and lands in
// its own slot. Per-history "history.analyze" spans are started from
// ctx on the worker goroutines, so they aggregate into the same stage
// histogram the sequential path feeds.
//
// On error (including a cancelled ctx or a panicking worker) the first
// failure is returned and the partial results are discarded.
func AnalyzeAll(ctx context.Context, hists []*History, workers int) ([]*Analysis, error) {
	out := make([]*Analysis, len(hists))
	err := pool.Map(ctx, pool.Workers(workers), len(hists), func(i int) error {
		a, err := AnalyzeContext(ctx, hists[i])
		if err != nil {
			return err
		}
		out[i] = a
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SizeSeries returns (time, #tables, #attributes) for every version —
// the "schema size over human time" line of the paper's figures.
func (a *Analysis) SizeSeries() []SizePoint {
	out := make([]SizePoint, len(a.Schemas))
	for i, s := range a.Schemas {
		out[i] = SizePoint{
			When:   a.History.Versions[i].When,
			Tables: s.NumTables(),
			Attrs:  s.NumColumns(),
		}
	}
	return out
}

// SizePoint is one point of the schema-size chart.
type SizePoint struct {
	When   time.Time
	Tables int
	Attrs  int
}

// MonthlyActivity aggregates expansion and maintenance per calendar month —
// the paper's Fig. 1/9 presentation for active projects. Months with no
// transitions are included (zero-filled) between the first and last commit.
func (a *Analysis) MonthlyActivity() []MonthBucket {
	if len(a.Transitions) == 0 {
		return nil
	}
	type key struct{ y, m int }
	buckets := map[key]*MonthBucket{}
	first := a.History.Versions[0].When
	last := a.History.Versions[len(a.History.Versions)-1].When
	for cur := time.Date(first.Year(), first.Month(), 1, 0, 0, 0, 0, time.UTC); !cur.After(last); cur = cur.AddDate(0, 1, 0) {
		buckets[key{cur.Year(), int(cur.Month())}] = &MonthBucket{Year: cur.Year(), Month: int(cur.Month())}
	}
	for _, t := range a.Transitions {
		k := key{t.When.Year(), int(t.When.Month())}
		b, ok := buckets[k]
		if !ok {
			b = &MonthBucket{Year: k.y, Month: k.m}
			buckets[k] = b
		}
		b.Expansion += t.Delta.Expansion()
		b.Maintenance += t.Delta.Maintenance()
		b.Commits++
	}
	var out []MonthBucket
	for cur := time.Date(first.Year(), first.Month(), 1, 0, 0, 0, 0, time.UTC); !cur.After(last); cur = cur.AddDate(0, 1, 0) {
		out = append(out, *buckets[key{cur.Year(), int(cur.Month())}])
	}
	return out
}

// MonthBucket is one month of aggregated activity.
type MonthBucket struct {
	Year        int
	Month       int
	Expansion   int
	Maintenance int
	Commits     int
}
