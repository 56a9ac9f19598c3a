// Package study wires the whole pipeline together and reproduces every
// table and figure of the paper's evaluation: corpus synthesis → collection
// funnel → history analysis → measurement → taxa classification →
// statistical validation → rendering. Each experiment has one driver
// function returning both the rendered artifact and the key numbers, so
// tests can assert on structure and the CLI can print.
package study

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/schemaevo/schemaevo/internal/collect"
	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/corpus"
	"github.com/schemaevo/schemaevo/internal/history"
	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/report"
	"github.com/schemaevo/schemaevo/internal/stats"
)

// Study is one fully processed run of the reproduction: the synthetic
// corpus, the funnel outcome, and the measured study set.
type Study struct {
	Seed   int64
	Corpus []*corpus.Project
	Funnel *collect.Funnel

	// ReedLimit is the limit applied to all measures and classifications:
	// the paper's published method constant (14). DerivedLimit is the
	// re-derivation of that constant on this corpus via the 85%-split
	// method (E18); with only ~55 single-active-commit projects in the
	// pool, the percentile estimate carries visible sampling variance, so —
	// like the paper, which derived the constant once — the derived value
	// is reported but the published constant is applied.
	ReedLimit    int
	DerivedLimit int

	// Measures covers the study set (non-history-less projects), in corpus
	// order. Analyses are retained for the chart experiments.
	Measures []core.Measures
	Analyses map[string]*history.Analysis
	ByTaxon  map[core.Taxon][]core.Measures

	// texts memoizes each experiment's rendered text by key (see
	// Experiment.Render), so a Study renders every experiment once however
	// many artifacts embed it. A Study must not be copied.
	textsMu sync.Mutex
	texts   map[string]string
}

// Options tunes pipeline execution without affecting its output.
type Options struct {
	// Workers bounds the worker pools of the parallel stages (corpus
	// builds, history analysis). 0 means GOMAXPROCS. Any worker count
	// produces byte-identical artifacts: parallel stages pre-draw their
	// randomness sequentially and reassemble results in fixed project
	// order.
	Workers int
	// Dialect selects the SQL dialect the corpus histories are rendered
	// (and re-parsed) in; see corpus.Config.Dialect. Empty means MySQL and
	// reproduces the historical byte-identical artifacts. The logical
	// evolution is dialect-independent, so headline statistics agree
	// across dialects up to type-spelling granularity.
	Dialect string
}

// New runs the full pipeline deterministically from seed.
func New(seed int64) (*Study, error) {
	return NewContext(context.Background(), seed)
}

// NewContext is New with observability: when ctx carries an obs tracer,
// every pipeline stage opens a span (study.new → corpus.generate,
// collect.generate, collect.funnel, study.analyze → per-project
// history.analyze, measure.classify, reedlimit.derive). Without a tracer the
// instrumentation is free.
func NewContext(ctx context.Context, seed int64) (*Study, error) {
	return NewWithOptions(ctx, seed, Options{})
}

// NewWithOptions is NewContext with execution options. The stage graph
// overlaps where dependencies allow: the collection funnel needs only
// the corpus roster (project names), which is derivable from the seed
// alone, so corpus generation runs concurrently with dataset generation
// and the funnel; analysis then fans out over the study set on a
// bounded worker pool.
func NewWithOptions(ctx context.Context, seed int64, opts Options) (*Study, error) {
	ctx, span := obs.Start(ctx, "study.new", obs.Int("seed", seed))
	defer span.End()
	// The seed is the correlation key: attach it here, once, so every log
	// line of this run — including per-stage debug events — carries it.
	ctx = obs.WithLogger(ctx, obs.Logger(ctx).With("seed", seed))
	obs.Logger(ctx).Info("pipeline start")

	s := &Study{Seed: seed, Analyses: map[string]*history.Analysis{}}

	// Corpus generation overlaps with the collection funnel below; the
	// funnel needs only the roster names, not the built histories.
	corpusCh := make(chan []*corpus.Project, 1)
	go func() {
		corpusCh <- corpus.GenerateContext(ctx, corpus.Config{Seed: seed, Workers: opts.Workers, Dialect: opts.Dialect})
	}()

	// Split the roster into study-set and rigid names for the funnel.
	var studyRepos, rigidRepos []string
	for _, m := range corpus.Roster(corpus.Config{Seed: seed}) {
		if m.Intended == core.HistoryLess {
			rigidRepos = append(rigidRepos, "foss/"+m.Name)
		} else {
			studyRepos = append(studyRepos, "foss/"+m.Name)
		}
	}
	targets := collect.DefaultTargets()
	files, meta, outcomes, err := collect.GenerateDatasetsContext(ctx, collect.GenConfig{
		Seed: seed, Targets: targets, StudyRepos: studyRepos, RigidRepos: rigidRepos,
	})
	if err != nil {
		<-corpusCh
		return nil, fmt.Errorf("study: funnel generation: %w", err)
	}
	s.Funnel = collect.RunContext(ctx, files, meta, outcomes)

	s.Corpus = <-corpusCh
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	s.ReedLimit = core.DefaultReedLimit

	// Analyze the study set in parallel: each project's parse/diff chain is
	// independent, and results are written to per-index slots so the output
	// order (and therefore every downstream statistic) stays deterministic.
	var studySet []*corpus.Project
	for _, p := range s.Corpus {
		if p.Intended != core.HistoryLess {
			studySet = append(studySet, p)
		}
	}
	hists := make([]*history.History, len(studySet))
	for i, p := range studySet {
		hists[i] = p.Hist
	}
	actx, analyzeSpan := obs.Start(ctx, "study.analyze", obs.Int("projects", int64(len(studySet))))
	analyses, err := history.AnalyzeAll(actx, hists, opts.Workers)
	analyzeSpan.End()
	if err != nil {
		return nil, fmt.Errorf("study: analyze: %w", err)
	}
	_, measureSpan := obs.Start(ctx, "measure.classify")
	for i, p := range studySet {
		s.Analyses[p.Name] = analyses[i]
		s.Measures = append(s.Measures, core.Measure(analyses[i], s.ReedLimit))
	}
	measureSpan.End()
	_, reedSpan := obs.Start(ctx, "reedlimit.derive")
	s.DerivedLimit = core.DeriveReedLimit(s.Measures)
	s.ByTaxon = core.ByTaxon(s.Measures)
	reedSpan.End()
	obs.Logger(ctx).Info("pipeline done",
		"cloned", s.Funnel.Cloned, "study_set", s.Funnel.StudySet)
	return s, nil
}

// taxonValues extracts a metric over one taxon's projects.
func (s *Study) taxonValues(t core.Taxon, get func(core.Measures) float64) []float64 {
	ms := s.ByTaxon[t]
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = get(m)
	}
	return out
}

func activityOf(m core.Measures) float64 { return float64(m.TotalActivity) }
func activeOf(m core.Measures) float64   { return float64(m.ActiveCommits) }

// --- E01: the collection funnel (§III.A) ------------------------------------

// RunFunnel renders the data-collection funnel.
func (s *Study) RunFunnel(ctx context.Context) string {
	return "E01 — Data collection funnel (§III.A)\n" + s.Funnel.String()
}

// --- E04: taxonomy (Fig. 3 + Table I) ----------------------------------------

// TaxonCount pairs a taxon with its population.
type TaxonCount struct {
	Taxon core.Taxon
	Count int
}

// TaxonCounts returns the classified population per taxon (study set only).
func (s *Study) TaxonCounts() []TaxonCount {
	var out []TaxonCount
	for _, t := range core.Taxa {
		out = append(out, TaxonCount{t, len(s.ByTaxon[t])})
	}
	return out
}

// RunTaxonomy renders the classification tree and the resulting population.
func (s *Study) RunTaxonomy(ctx context.Context) string {
	var b strings.Builder
	b.WriteString("E04 — Taxa of schema evolution (Fig. 3, Table I)\n\n")
	b.WriteString("Classification tree (applied reed limit " + fmt.Sprint(s.ReedLimit) + "):\n")
	b.WriteString(`  #commits ≤ 1                      → History-less (excluded)
  active commits = 0                → Frozen
  active ≤ 3, activity ≤ 10        → Almost Frozen
  active ≤ 3, activity > 10        → Focused Shot & Frozen
  4 ≤ active ≤ 10, 1–2 reeds       → Focused Shot & Low
  activity < 90                     → Moderate
  otherwise                         → Active

`)
	tb := report.NewTable("Population (study set of "+fmt.Sprint(len(s.Measures))+")",
		"taxon", "definition", "count", "share")
	total := len(s.Measures)
	for _, tc := range s.TaxonCounts() {
		tb.AddRow(tc.Taxon.String(), tc.Taxon.Definition(),
			fmt.Sprint(tc.Count), fmt.Sprintf("%.0f%%", 100*float64(tc.Count)/float64(total)))
	}
	b.WriteString(tb.String())
	return b.String()
}

// --- E05: measurements per taxon (Fig. 4) ------------------------------------

// fig4Metrics lists the rows of Fig. 4 in the paper's order.
var fig4Metrics = []struct {
	Name string
	Get  func(core.Measures) float64
}{
	{"Sch. Upd. Period (months)", func(m core.Measures) float64 { return float64(m.SUPMonths) }},
	{"TotalActivity", activityOf},
	{"#Commits", func(m core.Measures) float64 { return float64(m.Commits) }},
	{"#Active Commits", activeOf},
	{"#Reeds", func(m core.Measures) float64 { return float64(m.Reeds) }},
	{"Turf commits", func(m core.Measures) float64 { return float64(m.Turf) }},
	{"Table Insertions", func(m core.Measures) float64 { return float64(m.TableInsertions) }},
	{"Table Deletions", func(m core.Measures) float64 { return float64(m.TableDeletions) }},
	{"#Tables@Start", func(m core.Measures) float64 { return float64(m.TablesStart) }},
	{"#Tables@End", func(m core.Measures) float64 { return float64(m.TablesEnd) }},
}

// Fig4Cell is a min/median/max/avg summary.
type Fig4Cell struct {
	Min, Median, Max, Avg float64
}

// Fig4 computes the full measurement matrix: metric → taxon → summary.
func (s *Study) Fig4() map[string]map[core.Taxon]Fig4Cell {
	out := map[string]map[core.Taxon]Fig4Cell{}
	for _, metric := range fig4Metrics {
		row := map[core.Taxon]Fig4Cell{}
		for _, t := range core.Taxa {
			vals := s.taxonValues(t, metric.Get)
			if len(vals) == 0 {
				continue
			}
			row[t] = Fig4Cell{
				Min:    stats.Min(vals),
				Median: stats.Median(vals),
				Max:    stats.Max(vals),
				Avg:    stats.Mean(vals),
			}
		}
		out[metric.Name] = row
	}
	return out
}

// RunFig4 renders the per-taxon measurement table.
func (s *Study) RunFig4(ctx context.Context) string {
	fig4 := s.Fig4()
	var b strings.Builder
	b.WriteString("E05 — Measurements per taxon (Fig. 4): min / med / max / avg\n\n")
	headers := []string{"measure"}
	for _, t := range core.Taxa {
		headers = append(headers, fmt.Sprintf("%s (n=%d)", t.Short(), len(s.ByTaxon[t])))
	}
	tb := report.NewTable("", headers...)
	for _, metric := range fig4Metrics {
		row := []string{metric.Name}
		for _, t := range core.Taxa {
			c := fig4[metric.Name][t]
			row = append(row, fmt.Sprintf("%s/%s/%s/%s",
				report.FormatNum(c.Min), report.FormatNum(c.Median),
				report.FormatNum(c.Max), report.FormatNum(c.Avg)))
		}
		tb.AddRow(row...)
	}
	b.WriteString(tb.String())
	return b.String()
}

// --- E02/E03/E06..E10: project charts ----------------------------------------

// mostActive returns the study projects of a taxon sorted by activity,
// highest first.
func (s *Study) mostActive(t core.Taxon) []core.Measures {
	ms := append([]core.Measures(nil), s.ByTaxon[t]...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].TotalActivity > ms[j].TotalActivity })
	return ms
}

// renderProject renders the paper's two-panel project view: schema size over
// human time and the heartbeat over transition id.
func (s *Study) renderProject(m core.Measures, title string) string {
	a := s.Analyses[m.Project]
	var b strings.Builder
	fmt.Fprintf(&b, "%s — project %s (taxon %v)\n", title, m.Project, core.Classify(m))
	fmt.Fprintf(&b, "commits=%d active=%d reeds=%d activity=%d (exp %d / maint %d), SUP=%d months\n\n",
		m.Commits, m.ActiveCommits, m.Reeds, m.TotalActivity, m.Expansion, m.Maintenance, m.SUPMonths)

	sizes := a.SizeSeries()
	xs := make([]float64, len(sizes))
	ys := make([]float64, len(sizes))
	for i, p := range sizes {
		xs[i] = p.When.Sub(sizes[0].When).Hours() / 24
		ys[i] = float64(p.Tables)
	}
	b.WriteString(report.StepChart(xs, ys, 10, 72, "schema size (#tables) over days since V0"))
	b.WriteByte('\n')

	exp := make([]int, len(m.Heartbeat))
	maint := make([]int, len(m.Heartbeat))
	for i, beat := range m.Heartbeat {
		exp[i] = beat.Expansion
		maint[i] = beat.Maintenance
	}
	b.WriteString(report.Heartbeat(exp, maint, 6))
	return b.String()
}

// RunFig1 renders schema size and monthly activity for two active projects.
func (s *Study) RunFig1(ctx context.Context) string {
	actives := s.mostActive(core.Active)
	if len(actives) < 2 {
		return "E02 — insufficient active projects\n"
	}
	var b strings.Builder
	b.WriteString("E02 — Two active projects (Fig. 1)\n\n")
	for i, m := range actives[:2] {
		b.WriteString(s.renderProject(m, fmt.Sprintf("Fig. 1 panel %d", i+1)))
		a := s.Analyses[m.Project]
		months := a.MonthlyActivity()
		tb := report.NewTable("monthly activity", "month", "expansion", "maintenance", "commits")
		for _, mo := range months {
			if mo.Expansion == 0 && mo.Maintenance == 0 && mo.Commits == 0 {
				continue
			}
			tb.AddRow(fmt.Sprintf("%04d-%02d", mo.Year, mo.Month),
				fmt.Sprint(mo.Expansion), fmt.Sprint(mo.Maintenance), fmt.Sprint(mo.Commits))
		}
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RunFig2 renders the reference example (builderscon_octav-like): the most
// commit-rich active project.
func (s *Study) RunFig2(ctx context.Context) string {
	actives := s.mostActive(core.Active)
	if len(actives) == 0 {
		return "E03 — no active projects\n"
	}
	sort.Slice(actives, func(i, j int) bool { return actives[i].Commits > actives[j].Commits })
	return "E03 — Reference example (Fig. 2)\n\n" + s.renderProject(actives[0], "Fig. 2")
}

// RunExemplars renders one typical project per taxon (Figs. 5–9): the
// project whose activity is the taxon median.
func (s *Study) RunExemplars(ctx context.Context) string {
	var b strings.Builder
	b.WriteString("E06–E10 — Exemplars per taxon (Figs. 5–9)\n\n")
	figNo := 5
	for _, t := range []core.Taxon{core.AlmostFrozen, core.FocusedShotFrozen, core.Moderate, core.FocusedShotLow, core.Active} {
		ms := s.mostActive(t)
		if len(ms) == 0 {
			continue
		}
		median := ms[len(ms)/2]
		b.WriteString(s.renderProject(median, fmt.Sprintf("Fig. %d (%s exemplar)", figNo, t)))
		b.WriteByte('\n')
		figNo++
	}
	return b.String()
}

// RunFig10 renders the activity × active-commits log-log scatter.
func (s *Study) RunFig10(ctx context.Context) string {
	markers := map[core.Taxon]rune{
		core.AlmostFrozen:      'd',
		core.FocusedShotFrozen: 'c',
		core.Moderate:          't',
		core.FocusedShotLow:    's',
		core.Active:            'R',
	}
	series := map[rune][][2]float64{}
	for t, marker := range markers {
		for _, m := range s.ByTaxon[t] {
			series[marker] = append(series[marker], [2]float64{float64(m.TotalActivity), float64(m.ActiveCommits)})
		}
	}
	var b strings.Builder
	b.WriteString("E11 — Project profiles (Fig. 10; Frozen omitted: log axes)\n")
	b.WriteString("d=Almost Frozen  c=FShot+Frozen  t=Moderate  s=FShot+Low  R=Active\n\n")
	b.WriteString(report.ScatterLogLog(series, 20, 76))
	return b.String()
}
