package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"github.com/schemaevo/schemaevo/internal/serve"
	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// TestWriteBehindSetMatchesLibrary is the differential check of the
// daemon's one render per seed: for seeds 1–3, every key of the set the
// write-behind saves equals the library's own single-artifact render on a
// fresh study — report.html against HTMLReport, which renders every
// experiment itself, the experiment texts against RunExperiment, and the
// exports and figures against ExportCSV, ExportJSON and SVGFigures.
func TestWriteBehindSetMatchesLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("three pipeline runs and renders")
	}
	ctx := context.Background()
	m := store.NewMem()
	srv := serve.New(serve.Options{Store: m}) // the real pipeline and render
	seeds := []int64{1, 2, 3}
	if err := srv.Prewarm(ctx, seeds); err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			snap, err := m.Get(ctx, seed)
			if err != nil {
				t.Fatalf("the write-behind saved no snapshot: %v", err)
			}
			st, err := study.New(seed)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{"export.csv": st.ExportCSV()}
			for _, key := range study.ExperimentKeys() {
				want[key], _ = st.RunExperiment(ctx, key)
			}
			if want["export.json"], err = st.ExportJSON(); err != nil {
				t.Fatal(err)
			}
			if want["report.html"], err = st.HTMLReport(ctx); err != nil {
				t.Fatal(err)
			}
			for name, svg := range st.SVGFigures() {
				want["figures/"+name] = svg
			}

			keys := make([]string, 0, len(want))
			for key := range want {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				got, ok := snap.Artifacts[key]
				if !ok {
					t.Errorf("%s: missing from the saved set", key)
				} else if string(got) != want[key] {
					t.Errorf("%s: saved bytes differ from the library's render", key)
				}
			}
			for key := range snap.Artifacts {
				if _, ok := want[key]; !ok {
					t.Errorf("%s: saved but not an artifact of the library", key)
				}
			}
			gotSum, _ := json.Marshal(snap.Summary)
			wantSum, _ := json.Marshal(st.Summary())
			if string(gotSum) != string(wantSum) {
				t.Errorf("saved summary %s, want %s", gotSum, wantSum)
			}
		})
	}
}
