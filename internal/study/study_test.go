package study

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/stats"
)

// The full pipeline is expensive (~seconds); share one study across tests.
var (
	studyOnce sync.Once
	shared    *Study
	sharedErr error
)

func getStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() { shared, sharedErr = New(1) })
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return shared
}

func TestStudyPopulation(t *testing.T) {
	s := getStudy(t)
	if len(s.Measures) != 195 {
		t.Fatalf("study set = %d, want 195", len(s.Measures))
	}
	if s.Funnel.Cloned != 327 || s.Funnel.Rigid != 132 {
		t.Fatalf("funnel: cloned=%d rigid=%d", s.Funnel.Cloned, s.Funnel.Rigid)
	}
}

func TestStudyClassificationMatchesIntent(t *testing.T) {
	// With the paper's published reed limit applied, the classifier must
	// recover every project's generated taxon exactly.
	s := getStudy(t)
	intended := map[string]core.Taxon{}
	for _, p := range s.Corpus {
		intended[p.Name] = p.Intended
	}
	for _, m := range s.Measures {
		if got := core.Classify(m); got != intended[m.Project] {
			t.Errorf("%s: classified %v, generated as %v (active=%d reeds=%d activity=%d)",
				m.Project, got, intended[m.Project], m.ActiveCommits, m.Reeds, m.TotalActivity)
		}
	}
}

func TestStudyTaxonCountsShape(t *testing.T) {
	s := getStudy(t)
	counts := map[core.Taxon]int{}
	for _, tc := range s.TaxonCounts() {
		counts[tc.Taxon] = tc.Count
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 195 {
		t.Fatalf("taxon counts sum to %d", total)
	}
	// Shape: Almost Frozen is the largest taxon; each population within a
	// loose band of the paper's numbers.
	if counts[core.AlmostFrozen] < counts[core.Frozen] ||
		counts[core.AlmostFrozen] < counts[core.Active] {
		t.Errorf("Almost Frozen not dominant: %v", counts)
	}
	// With the published reed limit the classified populations reproduce
	// the paper's Fig. 4 cardinalities exactly.
	paper := map[core.Taxon]int{
		core.Frozen: 34, core.AlmostFrozen: 65, core.FocusedShotFrozen: 25,
		core.Moderate: 29, core.FocusedShotLow: 20, core.Active: 22,
	}
	for taxon, want := range paper {
		if got := counts[taxon]; got != want {
			t.Errorf("taxon %v count %d, paper %d", taxon, got, want)
		}
	}
}

func TestReedLimitNearPaper(t *testing.T) {
	s := getStudy(t)
	if s.ReedLimit != core.DefaultReedLimit {
		t.Fatalf("applied reed limit %d, want the paper's %d", s.ReedLimit, core.DefaultReedLimit)
	}
	if s.DerivedLimit < 8 || s.DerivedLimit > 30 {
		t.Fatalf("derived reed limit %d, want near 14", s.DerivedLimit)
	}
}

func TestFig4Ordering(t *testing.T) {
	s := getStudy(t)
	fig4 := s.Fig4()
	act := fig4["TotalActivity"]
	// Median activity must be strictly ordered as in the paper:
	// Frozen(0) < AF < {FSF ≈ Moderate} < FSL < Active.
	if !(act[core.Frozen].Median == 0) {
		t.Errorf("frozen median activity = %v", act[core.Frozen].Median)
	}
	if !(act[core.AlmostFrozen].Median < act[core.FocusedShotFrozen].Median) {
		t.Error("AF !< FSF")
	}
	if !(act[core.Moderate].Median < act[core.FocusedShotLow].Median) {
		t.Error("Moderate !< FSL")
	}
	if !(act[core.FocusedShotLow].Median < act[core.Active].Median) {
		t.Error("FSL !< Active")
	}
	commits := fig4["#Active Commits"]
	if !(commits[core.AlmostFrozen].Median <= 3 && commits[core.Active].Median >= 10) {
		t.Errorf("active commit medians off: AF=%v Active=%v",
			commits[core.AlmostFrozen].Median, commits[core.Active].Median)
	}
}

func TestOverallKWMatchesPaperShape(t *testing.T) {
	s := getStudy(t)
	for _, metric := range []struct {
		name string
		get  func(core.Measures) float64
	}{{"activity", activityOf}, {"active", activeOf}} {
		res, err := s.OverallKW(metric.get)
		if err != nil {
			t.Fatal(err)
		}
		if res.DF != 5 {
			t.Errorf("%s: df = %d, want 5", metric.name, res.DF)
		}
		if res.P >= 2.2e-16 {
			t.Errorf("%s: p = %g, want < 2.2e-16", metric.name, res.P)
		}
		if res.H < 100 {
			t.Errorf("%s: H = %v, paper scale is ~175", metric.name, res.H)
		}
	}
}

func TestPairwiseKWSignificancePattern(t *testing.T) {
	s := getStudy(t)
	matrix, taxa := s.PairwiseKW()
	idx := map[core.Taxon]int{}
	for i, taxon := range taxa {
		idx[taxon] = i
	}
	// Every upper-right (activity) comparison except Moderate↔FSF must be
	// significant at 5%.
	for i := range taxa {
		for j := range taxa {
			if i >= j {
				continue
			}
			p := matrix[i][j]
			isModFSF := (taxa[i] == core.FocusedShotFrozen && taxa[j] == core.Moderate) ||
				(taxa[i] == core.Moderate && taxa[j] == core.FocusedShotFrozen)
			if isModFSF {
				// The paper finds these similar in activity (p = 0.79); our
				// corpus should also fail to separate them clearly.
				if p < 0.01 {
					t.Errorf("Moderate↔FSF activity p = %g, expected non-tiny", p)
				}
				continue
			}
			if p > 0.05 {
				t.Errorf("activity %v↔%v p = %g, want < 0.05", taxa[i], taxa[j], p)
			}
		}
	}
	// Lower-left (active commits): Moderate↔FSL must be the non-significant
	// pair; the Frozen-family pairs and Active must separate.
	pModFSL := matrix[idx[core.FocusedShotLow]][idx[core.Moderate]]
	if pModFSL < 0.01 {
		t.Errorf("Moderate↔FSL active-commit p = %g, paper finds them similar (0.28)", pModFSL)
	}
	pAFActive := matrix[idx[core.Active]][idx[core.AlmostFrozen]]
	if pAFActive > 1e-6 {
		t.Errorf("AF↔Active active-commit p = %g, want tiny", pAFActive)
	}
}

func TestShapiroMatchesPaperShape(t *testing.T) {
	s := getStudy(t)
	res, err := s.Shapiro()
	if err != nil {
		t.Fatal(err)
	}
	if res.OverallActivity.W > 0.6 {
		t.Errorf("overall activity W = %v, paper has 0.244 (heavily non-normal)", res.OverallActivity.W)
	}
	if res.OverallActivity.P >= 2.2e-16 {
		t.Errorf("overall activity p = %g, want < 2.2e-16", res.OverallActivity.P)
	}
}

func TestQuartilesMonotone(t *testing.T) {
	s := getStudy(t)
	qs := s.Quartiles(activityOf, stats.Type2)
	for taxon, b := range qs {
		if !(b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max) {
			t.Errorf("taxon %v: quartiles not monotone: %+v", taxon, b)
		}
	}
	if qs[core.Active].Q1 < qs[core.FocusedShotLow].Median {
		t.Error("Active Q1 should exceed FSL median (far-apart taxon, §V)")
	}
}

func TestDurations(t *testing.T) {
	s := getStudy(t)
	rows := s.Durations()
	if len(rows) != 6 {
		t.Fatalf("duration rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Over12Months < r.Over24Months {
			t.Errorf("%v: >12mo (%v) < >24mo (%v)", r.Taxon, r.Over12Months, r.Over24Months)
		}
		if r.AvgDDLShare <= 0 || r.AvgDDLShare > 0.2 {
			t.Errorf("%v: DDL share = %v, expected a few percent", r.Taxon, r.AvgDDLShare)
		}
	}
	// Majority of projects span more than a year (paper: 77% overall).
	var frac float64
	for _, r := range rows {
		frac += r.Over12Months
	}
	if frac/6 < 0.5 {
		t.Errorf("average >12mo fraction = %v, want > 0.5", frac/6)
	}
}

func TestEverythingRenders(t *testing.T) {
	s := getStudy(t)
	outputs := s.Everything(context.Background())
	if len(outputs) != 22 {
		t.Fatalf("Everything() = %d sections", len(outputs))
	}
	wantFragments := []string{
		"E01", "E02", "E03", "E04", "E05", "Fig. 5", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
	}
	joined := strings.Join(outputs, "\n")
	for _, frag := range wantFragments {
		if !strings.Contains(joined, frag) {
			t.Errorf("combined output missing %q", frag)
		}
	}
	for i, out := range outputs {
		if strings.TrimSpace(out) == "" {
			t.Errorf("section %d is empty", i)
		}
	}
}

func TestRigidityHeadline(t *testing.T) {
	// The paper's headline: 70% of the 327 cloned projects show total
	// absence or very small presence of change (40% rigid + 10% frozen +
	// 20% almost frozen).
	s := getStudy(t)
	counts := map[core.Taxon]int{}
	for _, m := range s.Measures {
		counts[core.Classify(m)]++
	}
	lowChange := s.Funnel.Rigid + counts[core.Frozen] + counts[core.AlmostFrozen]
	frac := float64(lowChange) / float64(s.Funnel.Cloned)
	if frac < 0.60 || frac > 0.80 {
		t.Errorf("low-change fraction = %.2f, paper reports ≈ 0.70", frac)
	}
}

func TestForeignKeyUsage(t *testing.T) {
	s := getStudy(t)
	rows := s.ForeignKeys()
	if len(rows) != 6 {
		t.Fatalf("FK rows = %d", len(rows))
	}
	var anyUsage bool
	for _, r := range rows {
		if r.WithFKsAtEnd < 0 || r.WithFKsAtEnd > 1 {
			t.Errorf("%v: FK fraction = %v", r.Taxon, r.WithFKsAtEnd)
		}
		if r.WithFKsAtEnd > 0 {
			anyUsage = true
		}
	}
	if !anyUsage {
		t.Fatal("no taxon shows any FK usage")
	}
	// Active projects churn constraints more than Almost Frozen ones.
	var af, act FKRow
	for _, r := range rows {
		switch r.Taxon {
		case core.AlmostFrozen:
			af = r
		case core.Active:
			act = r
		}
	}
	if act.TotalFKAdded <= af.TotalFKAdded {
		t.Errorf("Active FK churn (%d) should exceed Almost Frozen (%d)", act.TotalFKAdded, af.TotalFKAdded)
	}
}

func TestTablePatterns(t *testing.T) {
	s := getStudy(t)
	e := s.Electrolysis()
	if e.Tables < 500 {
		t.Fatalf("only %d biographies over the study set", e.Tables)
	}
	if e.SurvivorLongShare() < 0.5 {
		t.Errorf("survivor long share = %.2f", e.SurvivorLongShare())
	}
}

func TestGranularityStability(t *testing.T) {
	// The paper claims commit habits do not change a project's aggregate
	// profile; squashing within a day must leave the vast majority of
	// projects in their taxon.
	s := getStudy(t)
	rows := s.Granularity([]time.Duration{0, 24 * time.Hour})
	if rows[0].Moved != 0 {
		t.Errorf("zero-window squash moved %d projects", rows[0].Moved)
	}
	if frac := float64(rows[1].Moved) / float64(len(s.Measures)); frac > 0.15 {
		t.Errorf("1-day squash moved %.0f%% of projects", 100*frac)
	}
}

func TestExportCSV(t *testing.T) {
	s := getStudy(t)
	csv := s.ExportCSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 196 { // header + 195 projects
		t.Fatalf("CSV lines = %d, want 196", len(lines))
	}
	if !strings.HasPrefix(lines[0], "project,taxon,commits") {
		t.Fatalf("header = %q", lines[0])
	}
}

// experimentSpans counts the experiment runs a collecting tracer saw.
func experimentSpans(tr *obs.Tracer) int {
	n := 0
	for _, r := range tr.Records() {
		if strings.HasPrefix(r.Name, "experiment.") {
			n++
		}
	}
	return n
}

// TestHTMLReportReusesRenderedTexts: concurrent renders of every experiment
// on one Study agree, that Study's report.html then runs no experiment
// again, and the memoized report equals one rendered on another Study —
// the goldens and stored copies depend on those bytes.
func TestHTMLReportReusesRenderedTexts(t *testing.T) {
	s, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.Options{Collect: true})
	ctx := obs.WithTracer(context.Background(), tr)
	keys := ExperimentKeys()
	texts := make([][]string, 3)
	var wg sync.WaitGroup
	for w := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, key := range keys {
				text, _ := s.RunExperiment(ctx, key)
				texts[w] = append(texts[w], text)
			}
		}()
	}
	wg.Wait()
	for w := 1; w < len(texts); w++ {
		for i, key := range keys {
			if texts[w][i] != texts[0][i] {
				t.Errorf("%s: concurrent renders disagree", key)
			}
		}
	}
	runs := experimentSpans(tr)
	if runs < len(keys) || runs > len(texts)*len(keys) {
		t.Fatalf("%d experiment runs for %d keys on %d goroutines", runs, len(keys), len(texts))
	}
	got, err := s.HTMLReport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again := experimentSpans(tr); again != runs {
		t.Errorf("HTMLReport ran %d experiments again", again-runs)
	}
	want, err := getStudy(t).HTMLReport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("report.html from memoized texts differs from another Study's")
	}
}

// TestCancelledRenderNotMemoized: a text rendered under a cancelled ctx may
// be partial, so it is not memoized; the next render with a live ctx runs
// the experiment and returns the full text, which is then memoized.
func TestCancelledRenderNotMemoized(t *testing.T) {
	var dialects Experiment
	for _, e := range Experiments() {
		if e.Key == "dialects" {
			dialects = e
		}
	}
	s := &Study{Seed: 1} // E27 builds its own sub-corpus from the seed
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	partial := dialects.Render(cancelled, s)
	if !strings.Contains(partial, "cancelled") {
		t.Fatalf("render under a cancelled ctx = %q", partial)
	}
	tr := obs.NewTracer(obs.Options{Collect: true})
	live := obs.WithTracer(context.Background(), tr)
	full := dialects.Render(live, s)
	if full == partial || !strings.Contains(full, "postgres") {
		t.Fatalf("live render after a cancelled one = %q", full)
	}
	if again := dialects.Render(live, s); again != full {
		t.Error("memoized text differs from the live render")
	}
	if n := experimentSpans(tr); n != 1 {
		t.Errorf("%d experiment runs under the live ctx, want 1", n)
	}
}

func TestThresholdSensitivity(t *testing.T) {
	s := getStudy(t)
	rows := s.ThresholdSensitivity()
	if len(rows) != 5 {
		t.Fatalf("sensitivity rows = %d", len(rows))
	}
	for _, r := range rows {
		total := 0
		for _, n := range r.Counts {
			total += n
		}
		if total != len(s.Measures) {
			t.Errorf("%s: counts sum to %d", r.Label, total)
		}
		// Threshold wiggles move only boundary projects, not the population.
		if r.Moved > len(s.Measures)/4 {
			t.Errorf("%s: %d projects moved", r.Label, r.Moved)
		}
	}
}

func TestSummaryAndJSON(t *testing.T) {
	s := getStudy(t)
	sum := s.Summary()
	if sum.StudySet != 195 || sum.Cloned != 327 {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.ActivityKWH < 100 || sum.ShapiroW <= 0 || sum.ShapiroW > 0.6 {
		t.Errorf("stats digest off: KW=%v W=%v", sum.ActivityKWH, sum.ShapiroW)
	}
	if sum.TaxonCounts["Active"] != 22 {
		t.Errorf("taxon counts: %v", sum.TaxonCounts)
	}
	js, err := s.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal([]byte(js), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if back.StudySet != sum.StudySet || back.MedianByTaxon["Active"].Activity != sum.MedianByTaxon["Active"].Activity {
		t.Fatal("JSON round trip lost data")
	}
}

func TestSVGFigures(t *testing.T) {
	s := getStudy(t)
	figs := s.SVGFigures()
	// 2 Fig.1 panels + Fig.2 + Figs.5–9, two panels each (8 projects × 2)
	// + monthly Fig.9 + scatter + box plot = 19 files.
	if len(figs) != 19 {
		names := make([]string, 0, len(figs))
		for n := range figs {
			names = append(names, n)
		}
		t.Fatalf("figures = %d: %v", len(figs), names)
	}
	for name, svg := range figs {
		if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
			t.Errorf("%s: not an SVG document", name)
		}
		if strings.Contains(svg, "NaN") {
			t.Errorf("%s: NaN leaked into coordinates", name)
		}
	}
	for _, want := range []string{"fig10_scatter.svg", "fig13_boxplot.svg", "fig2_size.svg", "fig2_heartbeat.svg"} {
		if _, ok := figs[want]; !ok {
			t.Errorf("figure %s missing", want)
		}
	}
}

func TestForecastAccuracyImprovesWithHorizon(t *testing.T) {
	s := getStudy(t)
	rows := s.Forecast([]float64{0.25, 0.5, 1.0})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Full observation must predict perfectly; accuracy must not decrease
	// with longer observation (weakly monotone up to sampling noise).
	if rows[2].Accuracy != 1.0 {
		t.Errorf("accuracy at 100%% = %v, want 1.0", rows[2].Accuracy)
	}
	if rows[0].Accuracy > rows[2].Accuracy || rows[1].Accuracy > rows[2].Accuracy {
		t.Errorf("accuracy not peaking at full observation: %v %v %v",
			rows[0].Accuracy, rows[1].Accuracy, rows[2].Accuracy)
	}
	// Even a quarter of the history carries real signal: far better than the
	// 33%% majority-class baseline (Almost Frozen).
	if rows[0].Accuracy < 0.4 {
		t.Errorf("25%%-horizon accuracy = %v, want ≥ 0.4", rows[0].Accuracy)
	}
	// Confusion matrices account for every project.
	for _, r := range rows {
		total := 0
		for _, m := range r.Confusion {
			for _, n := range m {
				total += n
			}
		}
		if total != len(s.Measures) {
			t.Errorf("horizon %v: confusion sums to %d", r.Horizon, total)
		}
	}
}

func TestHTMLReport(t *testing.T) {
	s := getStudy(t)
	html, err := s.HTMLReport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<!DOCTYPE html>", "</html>", "E04", "E23",
		"<svg", "fig13_boxplot.svg", "Almost Frozen",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
	// 18 inline figures.
	if got := strings.Count(html, "<figure"); got != 19 {
		t.Errorf("figures = %d, want 19", got)
	}
	// The experiment bodies are escaped text, not raw markup.
	if strings.Contains(html, "<taxon>") {
		t.Error("unescaped experiment text")
	}
}

func TestMultiSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed run is expensive")
	}
	sums, err := MultiSeed([]int64{11, 12, 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	for _, s := range sums {
		if s.StudySet != 195 || s.Cloned != 327 {
			t.Fatalf("seed %d: funnel broke: %+v", s.Seed, s)
		}
		// Taxa counts are exact by construction at the published limit.
		if s.TaxonCounts["Active"] != 22 || s.TaxonCounts["Alm. Frozen"] != 65 {
			t.Errorf("seed %d: taxa counts %v", s.Seed, s.TaxonCounts)
		}
		if s.ActivityKWH < 120 || s.ActivityKWH > 230 {
			t.Errorf("seed %d: KW χ² = %v, out of plausible band", s.Seed, s.ActivityKWH)
		}
		if s.ShapiroW > 0.6 {
			t.Errorf("seed %d: Shapiro W = %v", s.Seed, s.ShapiroW)
		}
	}
	out := RenderMultiSeed(sums)
	if !strings.Contains(out, "E24") || !strings.Contains(out, "178.22") {
		t.Errorf("render missing content:\n%s", out)
	}
	if RenderMultiSeed(nil) == "" {
		t.Error("empty render")
	}
}

func TestSurvivorDurationCorrelation(t *testing.T) {
	s := getStudy(t)
	rho, err := s.SurvivorDurationCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	// More active survivor tables live longer (the Electrolysis claim).
	if rho.Rho <= 0.1 {
		t.Errorf("survivor activity×duration rho = %v, want clearly positive", rho.Rho)
	}
	if rho.P > 0.01 {
		t.Errorf("p = %v, want significant", rho.P)
	}
}

func TestTempo(t *testing.T) {
	s := getStudy(t)
	rows := s.Tempo()
	if len(rows) != 6 {
		t.Fatalf("tempo rows = %d", len(rows))
	}
	byTaxon := map[core.Taxon]TempoRow{}
	for _, r := range rows {
		byTaxon[r.Taxon] = r
		if r.MedianGini < 0 || r.MedianGini > 1 {
			t.Errorf("%v: Gini = %v", r.Taxon, r.MedianGini)
		}
		if r.MedianCalmShare < 0 || r.MedianCalmShare > 1 {
			t.Errorf("%v: calm share = %v", r.Taxon, r.MedianCalmShare)
		}
	}
	// Focused taxa concentrate change far more than Moderate.
	if byTaxon[core.FocusedShotLow].MedianGini <= byTaxon[core.Moderate].MedianGini {
		t.Errorf("FSL Gini (%v) should exceed Moderate (%v)",
			byTaxon[core.FocusedShotLow].MedianGini, byTaxon[core.Moderate].MedianGini)
	}
	// Frozen projects have no activity: no Gini signal.
	if byTaxon[core.Frozen].MedianGini != 0 {
		t.Errorf("Frozen Gini = %v", byTaxon[core.Frozen].MedianGini)
	}
}

func TestShapeDistribution(t *testing.T) {
	s := getStudy(t)
	dist := s.ShapeDistribution()
	if len(dist) != 6 {
		t.Fatalf("taxa = %d", len(dist))
	}
	for taxon, d := range dist {
		sum := 0.0
		for _, frac := range d {
			sum += frac
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%v: shape fractions sum to %v", taxon, sum)
		}
	}
	// Frozen projects never change table counts: all flat.
	if dist[core.Frozen][core.FlatLine] != 1 {
		t.Errorf("Frozen flat share = %v, want 1", dist[core.Frozen][core.FlatLine])
	}
	// Rising shapes dominate Moderate (paper: 65%% rise), and the flat share
	// stays minor.
	rising := dist[core.Moderate][core.MultiStepRise] + dist[core.Moderate][core.SingleStepUp]
	if rising < 0.4 {
		t.Errorf("Moderate rising share = %v, want ≥ 0.4", rising)
	}
	// Active projects overwhelmingly involve several growth steps.
	if dist[core.Active][core.MultiStepRise]+dist[core.Active][core.TurbulentLine] < 0.5 {
		t.Errorf("Active multi-step+turbulent share too low: %v", dist[core.Active])
	}
}
