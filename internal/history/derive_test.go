package history_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/corpus"
	"github.com/schemaevo/schemaevo/internal/history"
)

// refPrefix is the from-scratch reference for Analysis.Prefix: a copy of
// the history holding its first k versions.
func refPrefix(h *history.History, k int) *history.History {
	out := *h
	out.Versions = append([]history.Version(nil), h.Versions[:k]...)
	return &out
}

// refSquash is the from-scratch reference for Analysis.Squash: runs of
// versions whose gap to the previous original version is below w collapse
// onto the run's last member, and IDs are renumbered.
func refSquash(h *history.History, w time.Duration) *history.History {
	out := *h
	out.Versions = nil
	for i, v := range h.Versions {
		if n := len(out.Versions); n > 0 && w > 0 && v.When.Sub(h.Versions[i-1].When) < w {
			out.Versions[n-1] = v
			continue
		}
		out.Versions = append(out.Versions, v)
	}
	for i := range out.Versions {
		out.Versions[i].ID = i
	}
	return &out
}

// diffAnalyses reports the first difference between a derived analysis and
// the from-scratch one: the history and its versions, the parse-error
// count, every schema, every transition field, and the paper's measures.
// Slice identity is not compared: a one-version analysis from scratch has
// nil Transitions, a sliced one an empty slice.
func diffAnalyses(got, want *history.Analysis) error {
	gh, wh := got.History, want.History
	if gh.Project != wh.Project || gh.Path != wh.Path || gh.Dialect != wh.Dialect ||
		gh.ProjectCommits != wh.ProjectCommits ||
		!gh.ProjectStart.Equal(wh.ProjectStart) || !gh.ProjectEnd.Equal(wh.ProjectEnd) {
		return fmt.Errorf("history context differs")
	}
	if len(gh.Versions) != len(wh.Versions) {
		return fmt.Errorf("%d versions, want %d", len(gh.Versions), len(wh.Versions))
	}
	for i, g := range gh.Versions {
		w := wh.Versions[i]
		if g.ID != w.ID || !g.When.Equal(w.When) || g.SQL != w.SQL || g.Commit != w.Commit || g.Message != w.Message {
			return fmt.Errorf("version %d differs: ID %d vs %d, when %v vs %v", i, g.ID, w.ID, g.When, w.When)
		}
	}
	if got.ParseErrors != want.ParseErrors {
		return fmt.Errorf("ParseErrors %d, want %d", got.ParseErrors, want.ParseErrors)
	}
	if len(got.Schemas) != len(want.Schemas) {
		return fmt.Errorf("%d schemas, want %d", len(got.Schemas), len(want.Schemas))
	}
	for i := range got.Schemas {
		if !reflect.DeepEqual(got.Schemas[i], want.Schemas[i]) {
			return fmt.Errorf("schema %d differs", i)
		}
	}
	if len(got.Transitions) != len(want.Transitions) {
		return fmt.Errorf("%d transitions, want %d", len(got.Transitions), len(want.Transitions))
	}
	for i, g := range got.Transitions {
		w := want.Transitions[i]
		switch {
		case g.FromID != w.FromID || g.ToID != w.ToID:
			return fmt.Errorf("transition %d: %d→%d, want %d→%d", i, g.FromID, g.ToID, w.FromID, w.ToID)
		case !g.When.Equal(w.When):
			return fmt.Errorf("transition %d: When %v, want %v", i, g.When, w.When)
		case g.DaysSinceV0 != w.DaysSinceV0:
			return fmt.Errorf("transition %d: DaysSinceV0 %v, want %v", i, g.DaysSinceV0, w.DaysSinceV0)
		case !reflect.DeepEqual(g.Delta, w.Delta):
			return fmt.Errorf("transition %d: Delta %+v, want %+v", i, g.Delta, w.Delta)
		case g.TablesBefore != w.TablesBefore || g.TablesAfter != w.TablesAfter ||
			g.AttrsBefore != w.AttrsBefore || g.AttrsAfter != w.AttrsAfter:
			return fmt.Errorf("transition %d: sizes differ", i)
		}
	}
	gm, wm := core.Measure(got, core.DefaultReedLimit), core.Measure(want, core.DefaultReedLimit)
	if !reflect.DeepEqual(gm, wm) {
		return fmt.Errorf("measures differ:\n got %+v\nwant %+v", gm, wm)
	}
	return nil
}

// oracleWindows are the squash windows the oracle sweeps: identity, below
// and at E21's windows, and one that merges most of a history.
var oracleWindows = []time.Duration{0, time.Hour, 24 * time.Hour, 7 * 24 * time.Hour, 90 * 24 * time.Hour}

// oraclePrefixes returns the prefix lengths checked for an n-version
// history: both ends, their neighbours, and the lengths E23 derives from
// its horizons.
func oraclePrefixes(n int) []int {
	seen := map[int]bool{}
	var out []int
	add := func(k int) {
		if k >= 1 && k <= n && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	add(1)
	add(2)
	add(n - 1)
	add(n)
	for _, h := range []float64{0.25, 0.5, 0.75, 1.0} {
		k := int(h*float64(n) + 0.5)
		if k < 2 {
			k = 2
		}
		add(k)
	}
	return out
}

// TestDerivedAnalysesMatchFromScratch is the differential oracle of
// Analysis.Prefix and Analysis.Squash: over every study-set project of
// corpus seeds 1–3, each derived analysis must equal AnalyzeContext run
// from scratch on the equivalent history.
func TestDerivedAnalysesMatchFromScratch(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			checked := 0
			for i, p := range corpus.Generate(corpus.Config{Seed: seed}) {
				if p.Intended == core.HistoryLess || i%oracleStride != 0 {
					continue
				}
				a, err := history.AnalyzeContext(ctx, p.Hist)
				if err != nil {
					t.Fatal(err)
				}
				check := func(label string, got *history.Analysis, ref *history.History) {
					want, err := history.AnalyzeContext(ctx, ref)
					if err != nil {
						t.Fatalf("%s %s: %v", p.Name, label, err)
					}
					if err := diffAnalyses(got, want); err != nil {
						t.Fatalf("%s %s: %v", p.Name, label, err)
					}
					checked++
				}
				for _, k := range oraclePrefixes(len(p.Hist.Versions)) {
					check(fmt.Sprintf("Prefix(%d)", k), a.Prefix(k), refPrefix(p.Hist, k))
				}
				for _, w := range oracleWindows {
					check(fmt.Sprintf("Squash(%v)", w), a.Squash(w), refSquash(p.Hist, w))
				}
			}
			if checked == 0 {
				t.Fatal("no project checked")
			}
			t.Logf("%d derived analyses equal their from-scratch references", checked)
		})
	}
}

// TestAnalyzeFilteredMatchesFilterThenAnalyze is the differential check of
// the one-parse ingest path: over the seed-1 corpus histories with empty,
// DDL-free and erroneous versions injected at varying positions,
// AnalyzeFiltered must keep and drop exactly what Filter does and return
// the analysis AnalyzeContext computes on Filter's result.
func TestAnalyzeFilteredMatchesFilterThenAnalyze(t *testing.T) {
	ctx := context.Background()
	junk := []string{
		"",
		"INSERT INTO t VALUES (1);",
		"-- comments only\n",
		"CREATE TABLE ok (id INT); CREATE TABLE broken (id INT,,,;", // kept, with parse errors
		"CREATE TABLE broken (id INT,,,;",
	}
	checked := 0
	for n, p := range corpus.Generate(corpus.Config{Seed: 1}) {
		if n%oracleStride != 0 {
			continue
		}
		h := *p.Hist
		h.Versions = append([]history.Version(nil), p.Hist.Versions...)
		for j, sql := range junk {
			at := (n + 3*j) % (len(h.Versions) + 1)
			v := history.Version{SQL: sql}
			if at < len(h.Versions) {
				v.When = h.Versions[at].When
			} else if at > 0 {
				v.When = h.Versions[at-1].When
			}
			h.Versions = append(h.Versions[:at], append([]history.Version{v}, h.Versions[at:]...)...)
		}
		ref := h
		ref.Versions = append([]history.Version(nil), h.Versions...)
		wantDropped := ref.Filter()
		got := h
		got.Versions = append([]history.Version(nil), h.Versions...)
		a, dropped, err := history.AnalyzeFiltered(ctx, &got)
		if dropped != wantDropped {
			t.Fatalf("%s: dropped %d, Filter dropped %d", p.Name, dropped, wantDropped)
		}
		if len(ref.Versions) == 0 {
			if err == nil || len(got.Versions) != 0 {
				t.Fatalf("%s: no usable versions, yet err = %v and %d kept", p.Name, err, len(got.Versions))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		want, err := history.AnalyzeContext(ctx, &ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffAnalyses(a, want); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no history checked")
	}

	// Nothing usable: every version dropped, the history emptied.
	h := &history.History{Project: "void", Versions: []history.Version{{SQL: ""}, {SQL: "SELECT 1;"}}}
	if _, dropped, err := history.AnalyzeFiltered(ctx, h); err == nil || dropped != 2 || len(h.Versions) != 0 {
		t.Fatalf("all-junk history: dropped %d, kept %d, err %v", dropped, len(h.Versions), err)
	}
}
