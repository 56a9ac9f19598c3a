// Package schemaevo is a from-scratch Go reproduction of "Profiles of Schema
// Evolution in Free Open Source Software Projects" (ICDE 2021): a toolkit
// for extracting relational schema histories from git repositories, diffing
// DDL versions at the logical level, measuring the heartbeat of schema
// evolution, classifying projects into taxa of evolutionary behaviour, and
// regenerating every table and figure of the paper's evaluation over a
// calibrated synthetic corpus.
//
// The package is a facade: it re-exports the stable surface of the internal
// engines so applications depend on one import path.
//
// # Quick start
//
//	res := schemaevo.ParseSQL("CREATE TABLE t (id INT PRIMARY KEY);")
//	delta := schemaevo.Diff(oldSchema, res.Schema)
//	fmt.Println(delta.Activity(), delta.IsActive())
//
// # Mining a repository
//
//	repo, _ := schemaevo.OpenRepo("/path/to/repo.git")
//	hist, _ := schemaevo.HistoryFromRepo(repo, "myproject", "db/schema.sql")
//	hist.Filter()
//	analysis, _ := schemaevo.Analyze(hist)
//	measures := schemaevo.Measure(analysis)
//	fmt.Println(schemaevo.Classify(measures)) // e.g. "Moderate"
//
// # Reproducing the study
//
//	st, _ := schemaevo.NewStudy(1)
//	for _, section := range st.Everything(context.Background()) {
//	    fmt.Println(section)
//	}
//
// Pass a context prepared with NewTracer/WithTracer (or use
// NewStudyContext) to capture a per-stage timing trace of the run.
package schemaevo

import (
	"context"
	"net/http"
	"time"

	"github.com/schemaevo/schemaevo/internal/collect"
	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/corpus"
	"github.com/schemaevo/schemaevo/internal/diff"
	"github.com/schemaevo/schemaevo/internal/gitstore"
	"github.com/schemaevo/schemaevo/internal/history"
	"github.com/schemaevo/schemaevo/internal/schema"
	"github.com/schemaevo/schemaevo/internal/serve"
	"github.com/schemaevo/schemaevo/internal/smo"
	"github.com/schemaevo/schemaevo/internal/sqlparse"
	"github.com/schemaevo/schemaevo/internal/stats"
	"github.com/schemaevo/schemaevo/internal/study"
	"github.com/schemaevo/schemaevo/internal/tables"
)

// --- schema model and parsing ------------------------------------------------

// Schema is one version of a database schema at the logical level: tables,
// attributes, data types and primary keys.
type Schema = schema.Schema

// Table is one relational table of a Schema.
type Table = schema.Table

// Column is one attribute of a Table.
type Column = schema.Column

// DataType is a parsed SQL data type.
type DataType = schema.DataType

// ParseResult is the outcome of parsing one DDL file version.
type ParseResult = sqlparse.Result

// ParseError describes a statement skipped by the tolerant parser.
type ParseError = sqlparse.ParseError

// ParseSQL parses MySQL-dialect DDL text tolerantly: statements the parser
// cannot understand are skipped and recorded, the rest build the schema.
func ParseSQL(src string) *ParseResult { return sqlparse.Parse(src) }

// NewSchema returns an empty schema.
func NewSchema() *Schema { return schema.New() }

// --- diffing -----------------------------------------------------------------

// Delta quantifies the logical-level difference between two schema versions
// in the paper's change categories (born/injected/deleted/ejected/type/PK),
// all measured in attributes.
type Delta = diff.Delta

// Change is one attribute-level change event inside a Delta.
type Change = diff.Change

// Diff computes the delta from an old to a new schema version. Either side
// may be nil (treated as the empty schema).
func Diff(old, new *Schema) *Delta { return diff.Compute(old, new) }

// --- repositories ------------------------------------------------------------

// Repo is a git-compatible object store (SHA-1 loose objects, refs, commit
// log, per-path file history).
type Repo = gitstore.Repo

// Worktree stages file snapshots and commits them to a Repo.
type Worktree = gitstore.Worktree

// Signature identifies a commit author with a timestamp.
type Signature = gitstore.Signature

// InitRepo creates (or reuses) a repository at dir.
func InitRepo(dir string) (*Repo, error) { return gitstore.Init(dir) }

// OpenRepo opens an existing repository at dir.
func OpenRepo(dir string) (*Repo, error) { return gitstore.Open(dir) }

// NewWorktree returns a worktree committing to refs/heads/<branch> of repo.
func NewWorktree(repo *Repo, branch string) *Worktree { return gitstore.NewWorktree(repo, branch) }

// --- histories and measurement -------------------------------------------------

// History is a schema history: the ordered versions of one DDL file plus
// project-level context (total commits, project update period).
type History = history.History

// Version is one commit of the DDL file.
type Version = history.Version

// Analysis is a fully processed history: parsed schemas and transitions.
type Analysis = history.Analysis

// Transition is one evolution step between consecutive versions.
type Transition = history.Transition

// HistoryFromRepo extracts the history of the DDL file at path from a
// repository, walking the full first-parent log from HEAD.
func HistoryFromRepo(repo *Repo, project, path string) (*History, error) {
	return history.FromRepo(repo, project, path)
}

// HistoryFromRepoBranch extracts the history from a specific branch instead
// of HEAD — the single-branch alternative for non-linear histories the
// paper's threats-to-validity section discusses.
func HistoryFromRepoBranch(repo *Repo, project, branch, path string) (*History, error) {
	return history.FromRepoBranch(repo, project, branch, path)
}

// Analyze parses every version of the history and computes all transitions.
func Analyze(h *History) (*Analysis, error) { return history.Analyze(h) }

// Measures summarises one project's schema evolution: commits, active
// commits, expansion/maintenance/activity, reeds and turf, table births and
// deaths, schema sizes, SUP/PUP and the heartbeat.
type Measures = core.Measures

// Beat is one element of the heartbeat H = {cᵢ(eᵢ, mᵢ)}.
type Beat = core.Beat

// DefaultReedLimit is the paper's published reed threshold (14 attributes).
const DefaultReedLimit = core.DefaultReedLimit

// Measure computes all measures of an analyzed history with the paper's
// published reed limit.
func Measure(a *Analysis) Measures { return core.Measure(a, core.DefaultReedLimit) }

// MeasureWithLimit computes the measures with a custom reed limit.
func MeasureWithLimit(a *Analysis, reedLimit int) Measures { return core.Measure(a, reedLimit) }

// DeriveReedLimit reproduces the paper's reed-limit derivation over a corpus
// of measures: the 85th percentile of activity over single-active-commit
// projects.
func DeriveReedLimit(corpus []Measures) int { return core.DeriveReedLimit(corpus) }

// --- taxa ----------------------------------------------------------------------

// Taxon is a family of schema-evolution behaviour (Fig. 3 / Table I).
type Taxon = core.Taxon

// The taxa of schema evolution.
const (
	HistoryLess       = core.HistoryLess
	Frozen            = core.Frozen
	AlmostFrozen      = core.AlmostFrozen
	FocusedShotFrozen = core.FocusedShotFrozen
	Moderate          = core.Moderate
	FocusedShotLow    = core.FocusedShotLow
	Active            = core.Active
)

// Taxa lists the six studied taxa in canonical order.
func Taxa() []Taxon { return append([]Taxon(nil), core.Taxa...) }

// Classify assigns a project to its taxon using the paper's thresholds.
func Classify(m Measures) Taxon { return core.Classify(m) }

// ByTaxon partitions a corpus of measures into taxa.
func ByTaxon(corpus []Measures) map[Taxon][]Measures { return core.ByTaxon(corpus) }

// --- statistics ------------------------------------------------------------------

// KruskalWallisResult holds a Kruskal–Wallis test outcome.
type KruskalWallisResult = stats.KruskalWallisResult

// ShapiroWilkResult holds a Shapiro–Wilk normality test outcome.
type ShapiroWilkResult = stats.ShapiroWilkResult

// KruskalWallis performs the Kruskal–Wallis H test over k groups.
func KruskalWallis(groups ...[]float64) (KruskalWallisResult, error) {
	return stats.KruskalWallis(groups...)
}

// ShapiroWilk performs the Shapiro–Wilk normality test (Royston's AS R94).
func ShapiroWilk(xs []float64) (ShapiroWilkResult, error) { return stats.ShapiroWilk(xs) }

// SpearmanResult holds a rank-correlation outcome.
type SpearmanResult = stats.SpearmanResult

// Spearman computes the rank correlation between paired samples (midranks
// under ties), with a t-approximation p-value.
func Spearman(xs, ys []float64) (SpearmanResult, error) { return stats.Spearman(xs, ys) }

// Skewness returns the adjusted Fisher–Pearson sample skewness.
func Skewness(xs []float64) float64 { return stats.Skewness(xs) }

// --- corpus synthesis and the study ------------------------------------------------

// CorpusProject is one synthetic FOSS project.
type CorpusProject = corpus.Project

// CorpusConfig parameterises corpus generation.
type CorpusConfig = corpus.Config

// GenerateCorpus builds a per-taxon calibrated synthetic corpus; a nil
// Counts map reproduces the paper's 327-project population.
func GenerateCorpus(cfg CorpusConfig) []*CorpusProject { return corpus.Generate(cfg) }

// WriteProjectRepo materialises a corpus project as an on-disk git
// repository, with up to fillerCap filler commits around the schema history.
func WriteProjectRepo(p *CorpusProject, dir string, fillerCap int) (*Repo, error) {
	return corpus.WriteToRepo(p, dir, fillerCap)
}

// --- schema modification operators (extension) ---------------------------------

// SMO is one schema modification operator: it renders to a MySQL statement
// and applies to a schema in place.
type SMO = smo.Op

// DeriveSMOs computes the operator sequence transforming old into new, in a
// replay-safe order. Applying the sequence to old reproduces new exactly.
func DeriveSMOs(old, new *Schema) []SMO { return smo.Derive(old, new) }

// ApplySMOs replays an operator sequence onto s.
func ApplySMOs(s *Schema, ops []SMO) error { return smo.Apply(s, ops) }

// RenderMigration emits the operator sequence as an executable SQL script.
func RenderMigration(ops []SMO) string { return smo.Render(ops) }

// SchemasEqual reports logical-level schema equality (the capacity the
// study measures: table/column sets, types, PKs, FK identities).
func SchemasEqual(a, b *Schema) bool { return schema.Equal(a, b) }

// --- table-level patterns (extension) -------------------------------------------

// TableLife is the biography of one table inside a history.
type TableLife = tables.Life

// TableLives computes the biography of every table that ever existed in the
// analyzed history.
func TableLives(a *Analysis) []*TableLife { return tables.Analyze(a) }

// Electrolysis is the survival × duration × activity cross-tabulation of
// table biographies.
type Electrolysis = tables.Electrolysis

// Funnel holds the data-collection pipeline counts (§III.A).
type Funnel = collect.Funnel

// Study is one fully processed run of the reproduction.
type Study = study.Study

// NewStudy runs the entire pipeline — corpus synthesis, collection funnel,
// measurement, classification — deterministically from seed.
func NewStudy(seed int64) (*Study, error) { return study.New(seed) }

// NewStudyContext is NewStudy with a caller-supplied context: cancellation
// aside, attach a tracer (internal/obs via the studyrun -trace flag, or the
// daemon's /v1/debug/trace endpoint) to record per-stage spans of the run.
func NewStudyContext(ctx context.Context, seed int64) (*Study, error) {
	return study.NewContext(ctx, seed)
}

// StudyExperiment is one named experiment driver: a stable selector key
// plus the function rendering its text artifact.
type StudyExperiment = study.Experiment

// StudyExperiments returns the full experiment registry in presentation
// order — the same table cmd/studyrun and schemaevod dispatch from.
func StudyExperiments() []StudyExperiment { return study.Experiments() }

// StudyExperimentKeys returns just the selector keys, in order.
func StudyExperimentKeys() []string { return study.ExperimentKeys() }

// --- serving (schemaevod) -------------------------------------------------------

// StudyServerOptions configures a caching study server. The zero value uses
// an 8-study LRU, a 60-second request deadline, and the real pipeline.
type StudyServerOptions struct {
	// CacheSize bounds the number of completed studies kept in memory.
	CacheSize int
	// Timeout is the per-request deadline.
	Timeout time.Duration
}

// NewStudyServer returns the schemaevod HTTP handler: the full study served
// per seed from a bounded LRU cache with singleflight deduplication, plus
// /healthz and /metrics. See cmd/schemaevod for the endpoint list.
func NewStudyServer(opts StudyServerOptions) http.Handler {
	return serve.New(serve.Options{CacheSize: opts.CacheSize, Timeout: opts.Timeout})
}
