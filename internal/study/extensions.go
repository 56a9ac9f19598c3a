package study

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/report"
	"github.com/schemaevo/schemaevo/internal/stats"
	"github.com/schemaevo/schemaevo/internal/tables"
)

// This file holds the extension experiments beyond the paper's published
// artifacts: the table-level Electrolysis view (E20, the paper's companion
// work [14]/[15] and an open path), the commit-granularity robustness check
// (E21, from the threats-to-validity discussion), and the per-project
// dataset export mirroring the paper's public Schema_Evo_2019 release.

// Electrolysis aggregates the table-level cross-tab over the whole study
// set.
func (s *Study) Electrolysis() *tables.Electrolysis {
	var e tables.Electrolysis
	for _, m := range s.Measures {
		a := s.Analyses[m.Project]
		for _, l := range tables.Analyze(a) {
			e.Add(l, len(a.Schemas))
		}
	}
	return &e
}

// SurvivorDurationCorrelation quantifies the second half of the
// Electrolysis claim — "the more active survivors are, the stronger they
// are attracted towards high durations" — as a Spearman rank correlation
// between update activity and lifetime over all survivor tables.
func (s *Study) SurvivorDurationCorrelation() (stats.SpearmanResult, error) {
	var updates, durations []float64
	for _, m := range s.Measures {
		a := s.Analyses[m.Project]
		for _, l := range tables.Analyze(a) {
			if l.Survived {
				updates = append(updates, float64(l.Updates))
				durations = append(durations, float64(l.DurationVersions))
			}
		}
	}
	return stats.Spearman(updates, durations)
}

// RunTablePatterns renders E20.
func (s *Study) RunTablePatterns(ctx context.Context) string {
	e := s.Electrolysis()
	var b strings.Builder
	b.WriteString("E20 — Table-level patterns: Electrolysis (extension; refs [14], [15])\n\n")
	b.WriteString(e.String())
	fmt.Fprintf(&b, "\ndead tables in the short-duration band:  %.0f%%\n", 100*e.DeadShortShare())
	fmt.Fprintf(&b, "survivors in the long-duration band:     %.0f%%\n", 100*e.SurvivorLongShare())
	if rho, err := s.SurvivorDurationCorrelation(); err == nil {
		fmt.Fprintf(&b, "survivor activity × duration:            %s\n", rho)
	}
	b.WriteString("pattern: dead tables die young and quiet; survivors live long.\n")
	return b.String()
}

// GranularityRow reports taxa stability under one squash window.
type GranularityRow struct {
	Window        time.Duration
	Moved         int // projects whose taxon changed vs. the unsquashed run
	Counts        map[core.Taxon]int
	MedianCommits float64
}

// Granularity re-runs measurement and classification after collapsing
// commits closer than each window, quantifying the paper's claim that
// commit habits do not change a project's aggregate profile. It reuses the
// study's analyses (history.Analysis.Squash): nothing is parsed again.
func (s *Study) Granularity(windows []time.Duration) []GranularityRow {
	baseline := map[string]core.Taxon{}
	for _, m := range s.Measures {
		baseline[m.Project] = core.Classify(m)
	}
	var out []GranularityRow
	for _, w := range windows {
		row := GranularityRow{Window: w, Counts: map[core.Taxon]int{}}
		var commitCounts []float64
		for _, m := range s.Measures {
			nm := core.Measure(s.Analyses[m.Project].Squash(w), s.ReedLimit)
			taxon := core.Classify(nm)
			row.Counts[taxon]++
			if taxon != baseline[m.Project] {
				row.Moved++
			}
			commitCounts = append(commitCounts, float64(nm.Commits))
		}
		row.MedianCommits = stats.Median(commitCounts)
		out = append(out, row)
	}
	return out
}

// RunGranularity renders E21.
func (s *Study) RunGranularity(ctx context.Context) string {
	rows := s.Granularity([]time.Duration{0, 24 * time.Hour, 7 * 24 * time.Hour})
	headers := []string{"squash window", "median #commits", "projects moved taxon"}
	for _, t := range core.Taxa {
		headers = append(headers, t.Short())
	}
	tb := report.NewTable("", headers...)
	for _, r := range rows {
		label := "none"
		if r.Window > 0 {
			label = fmt.Sprintf("%dd", int(r.Window.Hours()/24))
		}
		row := []string{label, report.FormatNum(r.MedianCommits), fmt.Sprint(r.Moved)}
		for _, t := range core.Taxa {
			row = append(row, fmt.Sprint(r.Counts[t]))
		}
		tb.AddRow(row...)
	}
	return "E21 — Commit-granularity robustness (threats to validity, §III.C)\n" +
		"Runs of commits within the window collapse to their final state.\n\n" + tb.String()
}

// SensitivityRow reports taxa populations under one classifier threshold
// variation (E22): how robust are the taxa to the exact cut-off values?
type SensitivityRow struct {
	Label  string
	Moved  int
	Counts map[core.Taxon]int
}

// ThresholdSensitivity sweeps the two magic numbers of the classification
// tree — the Moderate/Active activity cut (paper: 90) and the frozen-family
// active-commit cut (paper: 3) — and reports how the population shifts.
func (s *Study) ThresholdSensitivity() []SensitivityRow {
	variants := []struct {
		label string
		th    core.ClassifierThresholds
	}{}
	for _, cut := range []int{70, 90, 110} {
		th := core.DefaultThresholds()
		th.ModerateActivityMax = cut
		variants = append(variants, struct {
			label string
			th    core.ClassifierThresholds
		}{fmt.Sprintf("activity cut %d", cut), th})
	}
	for _, cut := range []int{2, 4} {
		th := core.DefaultThresholds()
		th.FrozenActiveMax = cut
		variants = append(variants, struct {
			label string
			th    core.ClassifierThresholds
		}{fmt.Sprintf("frozen active cut %d", cut), th})
	}

	baseline := map[string]core.Taxon{}
	for _, m := range s.Measures {
		baseline[m.Project] = core.Classify(m)
	}
	var out []SensitivityRow
	for _, v := range variants {
		row := SensitivityRow{Label: v.label, Counts: map[core.Taxon]int{}}
		for _, m := range s.Measures {
			taxon := core.ClassifyWith(m, v.th)
			row.Counts[taxon]++
			if taxon != baseline[m.Project] {
				row.Moved++
			}
		}
		out = append(out, row)
	}
	return out
}

// RunSensitivity renders E22.
func (s *Study) RunSensitivity(ctx context.Context) string {
	headers := []string{"variant", "projects moved"}
	for _, t := range core.Taxa {
		headers = append(headers, t.Short())
	}
	tb := report.NewTable("", headers...)
	base := []string{"paper thresholds", "0"}
	for _, t := range core.Taxa {
		base = append(base, fmt.Sprint(len(s.ByTaxon[t])))
	}
	tb.AddRow(base...)
	for _, r := range s.ThresholdSensitivity() {
		row := []string{r.Label, fmt.Sprint(r.Moved)}
		for _, t := range core.Taxa {
			row = append(row, fmt.Sprint(r.Counts[t]))
		}
		tb.AddRow(row...)
	}
	return "E22 — Classifier threshold sensitivity (ablation, DESIGN.md §4)\n" +
		"Only projects near a cut-off move, and only between adjacent taxa.\n\n" + tb.String()
}

// ShapeDistribution returns, per taxon, the fraction of projects with each
// schema-line shape — reproducing the in-text percentages of §IV ("65% of
// [Moderate] projects have a rise in the schema, 10% have a flat line";
// "52% of [FShot+Frozen] projects involve a single step-up"; Active: "50%
// … several steps, 9% with a single step").
func (s *Study) ShapeDistribution() map[core.Taxon]map[core.Shape]float64 {
	out := map[core.Taxon]map[core.Shape]float64{}
	for _, t := range core.Taxa {
		ms := s.ByTaxon[t]
		if len(ms) == 0 {
			continue
		}
		dist := map[core.Shape]float64{}
		for _, m := range ms {
			dist[core.ShapeOf(s.Analyses[m.Project])]++
		}
		for shape := range dist {
			dist[shape] /= float64(len(ms))
		}
		out[t] = dist
	}
	return out
}

// RunShapes renders E26.
func (s *Study) RunShapes(ctx context.Context) string {
	shapes := []core.Shape{core.FlatLine, core.SingleStepUp, core.MultiStepRise, core.DroppingLine, core.TurbulentLine}
	headers := []string{"taxon"}
	for _, sh := range shapes {
		headers = append(headers, sh.String())
	}
	tb := report.NewTable("", headers...)
	dist := s.ShapeDistribution()
	for _, t := range core.Taxa {
		row := []string{t.String()}
		for _, sh := range shapes {
			row = append(row, fmt.Sprintf("%.0f%%", 100*dist[t][sh]))
		}
		tb.AddRow(row...)
	}
	return "E26 — Schema-line shapes per taxon (§IV in-text percentages)\n" +
		"paper: FShot+Frozen 52% single step-up, 36% flat; Moderate 65% rise,\n" +
		"10% flat; Active ~50% several steps, 9% single step, plus drops/turbulence.\n\n" +
		tb.String()
}

// TempoRow summarises one taxon's change tempo (E25; lineage: "Growing up
// with stability" [13] — bursts of concentrated effort interrupting longer
// periods of calmness).
type TempoRow struct {
	Taxon core.Taxon
	// MedianGini is the median concentration of activity across active
	// commits: 0 = spread evenly, →1 = one commit carries everything.
	MedianGini float64
	// MedianCalmShare is the median fraction of the SUP occupied by the
	// single longest gap between consecutive commits.
	MedianCalmShare float64
}

// Tempo computes per-taxon burst/calm statistics over the study set.
// Projects without at least two active commits carry no concentration
// signal and are skipped for Gini (their calm share still counts).
func (s *Study) Tempo() []TempoRow {
	var out []TempoRow
	for _, t := range core.Taxa {
		ms := s.ByTaxon[t]
		if len(ms) == 0 {
			continue
		}
		var ginis, calms []float64
		for _, m := range ms {
			var acts []float64
			for _, b := range m.Heartbeat {
				if b.Activity() > 0 {
					acts = append(acts, float64(b.Activity()))
				}
			}
			if len(acts) >= 2 {
				ginis = append(ginis, stats.Gini(acts))
			}
			// Longest calm gap over the schema file's life.
			versions := s.Analyses[m.Project].History.Versions
			if len(versions) >= 3 {
				sup := versions[len(versions)-1].When.Sub(versions[0].When)
				if sup > 0 {
					var longest float64
					for i := 1; i < len(versions); i++ {
						gap := versions[i].When.Sub(versions[i-1].When)
						if g := gap.Seconds(); g > longest {
							longest = g
						}
					}
					calms = append(calms, longest/sup.Seconds())
				}
			}
		}
		row := TempoRow{Taxon: t}
		if len(ginis) > 0 {
			row.MedianGini = stats.Median(ginis)
		}
		if len(calms) > 0 {
			row.MedianCalmShare = stats.Median(calms)
		}
		out = append(out, row)
	}
	return out
}

// RunTempo renders E25.
func (s *Study) RunTempo(ctx context.Context) string {
	tb := report.NewTable("", "taxon", "median activity Gini", "median longest-calm share of SUP")
	for _, r := range s.Tempo() {
		gini := "—"
		if r.MedianGini > 0 {
			gini = fmt.Sprintf("%.2f", r.MedianGini)
		}
		calm := "—"
		if r.MedianCalmShare > 0 {
			calm = fmt.Sprintf("%.0f%%", 100*r.MedianCalmShare)
		}
		tb.AddRow(r.Taxon.String(), gini, calm)
	}
	return "E25 — Change tempo: bursts and calm (extension; lineage [13])\n" +
		"Gini measures how concentrated activity is across a project's active\n" +
		"commits; the calm share is the longest idle gap relative to the SUP.\n\n" + tb.String()
}

// ForecastRow reports early-life prediction quality at one observation
// horizon (E23): classify each project on the prefix of its history and
// compare against its final taxon — the paper's motivating use case of
// predicting a schema's propensity to evolve.
type ForecastRow struct {
	// Horizon is the observed fraction of the history (0 < h ≤ 1).
	Horizon float64
	// Accuracy is the fraction of projects whose prefix taxon equals the
	// final taxon.
	Accuracy float64
	// Confusion[final][predicted] counts projects.
	Confusion map[core.Taxon]map[core.Taxon]int
}

// Forecast evaluates prefix-based taxon prediction at the given horizons.
// It reuses the study's analyses (history.Analysis.Prefix): nothing is
// parsed or diffed again.
func (s *Study) Forecast(horizons []float64) []ForecastRow {
	var out []ForecastRow
	for _, h := range horizons {
		row := ForecastRow{Horizon: h, Confusion: map[core.Taxon]map[core.Taxon]int{}}
		correct := 0
		for _, m := range s.Measures {
			final := core.Classify(m)
			k := int(h*float64(m.Commits) + 0.5)
			if k < 2 {
				k = 2 // need at least one transition to observe anything
			}
			predicted := core.Classify(core.Measure(s.Analyses[m.Project].Prefix(k), s.ReedLimit))
			if row.Confusion[final] == nil {
				row.Confusion[final] = map[core.Taxon]int{}
			}
			row.Confusion[final][predicted]++
			if predicted == final {
				correct++
			}
		}
		row.Accuracy = float64(correct) / float64(len(s.Measures))
		out = append(out, row)
	}
	return out
}

// RunForecast renders E23.
func (s *Study) RunForecast(ctx context.Context) string {
	rows := s.Forecast([]float64{0.25, 0.5, 0.75, 1.0})
	var b strings.Builder
	b.WriteString("E23 — Early-life taxon forecasting (extension; §I motivation)\n")
	b.WriteString("Classify each project on the first h·#commits versions; compare to final taxon.\n\n")
	acc := report.NewTable("", "observed fraction", "accuracy")
	for _, r := range rows {
		acc.AddRow(fmt.Sprintf("%.0f%%", 100*r.Horizon), fmt.Sprintf("%.0f%%", 100*r.Accuracy))
	}
	b.WriteString(acc.String())
	b.WriteByte('\n')

	// Confusion matrix at the 50% horizon.
	for _, r := range rows {
		if r.Horizon != 0.5 {
			continue
		}
		headers := []string{"final \\ predicted"}
		for _, t := range core.Taxa {
			headers = append(headers, t.Short())
		}
		cm := report.NewTable("confusion at 50% observed", headers...)
		for _, final := range core.Taxa {
			row := []string{final.Short()}
			for _, pred := range core.Taxa {
				row = append(row, fmt.Sprint(r.Confusion[final][pred]))
			}
			cm.AddRow(row...)
		}
		b.WriteString(cm.String())
	}
	return b.String()
}

// SummaryVersion identifies the wire shape of Summary. Bump it whenever a
// field is added, removed, renamed, or changes meaning: the snapshot store
// embeds this number in every persisted entry and treats a mismatch as a
// cache miss, so stale snapshots fall back to a fresh pipeline run instead
// of deserializing into the wrong shape.
const SummaryVersion = 1

// Summary is the machine-readable digest of a study run.
type Summary struct {
	Seed          int64                 `json:"seed"`
	ReedLimit     int                   `json:"reed_limit"`
	DerivedLimit  int                   `json:"derived_reed_limit"`
	Cloned        int                   `json:"cloned"`
	Rigid         int                   `json:"rigid"`
	StudySet      int                   `json:"study_set"`
	TaxonCounts   map[string]int        `json:"taxon_counts"`
	ActivityKWH   float64               `json:"activity_kw_chi_squared"`
	ActiveKWH     float64               `json:"active_commits_kw_chi_squared"`
	ShapiroW      float64               `json:"activity_shapiro_w"`
	MedianByTaxon map[string]MedianPair `json:"medians"`
}

// MedianPair holds the two headline medians of one taxon.
type MedianPair struct {
	Activity      float64 `json:"activity"`
	ActiveCommits float64 `json:"active_commits"`
}

// Summary computes the digest.
func (s *Study) Summary() Summary {
	sum := Summary{
		Seed:          s.Seed,
		ReedLimit:     s.ReedLimit,
		DerivedLimit:  s.DerivedLimit,
		Cloned:        s.Funnel.Cloned,
		Rigid:         s.Funnel.Rigid,
		StudySet:      s.Funnel.StudySet,
		TaxonCounts:   map[string]int{},
		MedianByTaxon: map[string]MedianPair{},
	}
	for _, t := range core.Taxa {
		sum.TaxonCounts[t.Short()] = len(s.ByTaxon[t])
		acts := s.taxonValues(t, activityOf)
		commits := s.taxonValues(t, activeOf)
		if len(acts) > 0 {
			sum.MedianByTaxon[t.Short()] = MedianPair{
				Activity:      stats.Median(acts),
				ActiveCommits: stats.Median(commits),
			}
		}
	}
	if kw, err := s.OverallKW(activityOf); err == nil {
		sum.ActivityKWH = kw.H
	}
	if kw, err := s.OverallKW(activeOf); err == nil {
		sum.ActiveKWH = kw.H
	}
	if sw, err := s.Shapiro(); err == nil {
		sum.ShapiroW = sw.OverallActivity.W
	}
	return sum
}

// ExportJSON renders the summary as indented JSON.
func (s *Study) ExportJSON() (string, error) {
	data, err := json.MarshalIndent(s.Summary(), "", "  ")
	if err != nil {
		return "", fmt.Errorf("study: summary: %w", err)
	}
	return string(data) + "\n", nil
}

// ExportCSV emits the per-project dataset — one row per studied project with
// every measure and the assigned taxon — mirroring the study's public data
// release.
func (s *Study) ExportCSV() string {
	tb := report.NewTable("",
		"project", "taxon", "commits", "active_commits", "reeds", "turf",
		"expansion", "maintenance", "total_activity",
		"table_insertions", "table_deletions", "tables_start", "tables_end",
		"attrs_start", "attrs_end", "fks_start", "fks_end", "fk_added", "fk_removed",
		"sup_months", "pup_months", "ddl_share")
	for _, m := range s.Measures {
		tb.AddRow(
			m.Project, core.Classify(m).Short(),
			fmt.Sprint(m.Commits), fmt.Sprint(m.ActiveCommits), fmt.Sprint(m.Reeds), fmt.Sprint(m.Turf),
			fmt.Sprint(m.Expansion), fmt.Sprint(m.Maintenance), fmt.Sprint(m.TotalActivity),
			fmt.Sprint(m.TableInsertions), fmt.Sprint(m.TableDeletions),
			fmt.Sprint(m.TablesStart), fmt.Sprint(m.TablesEnd),
			fmt.Sprint(m.AttrsStart), fmt.Sprint(m.AttrsEnd),
			fmt.Sprint(m.FKsStart), fmt.Sprint(m.FKsEnd), fmt.Sprint(m.FKAdded), fmt.Sprint(m.FKRemoved),
			fmt.Sprint(m.SUPMonths), fmt.Sprint(m.PUPMonths), fmt.Sprintf("%.4f", m.DDLShare))
	}
	return tb.CSV()
}
