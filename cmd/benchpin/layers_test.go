package main

import (
	"strings"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
)

// TestLayerTableSelfAndResidual checks self time and the residual on a
// synthetic tree with overlapping children:
//
//	root 0–100 ms
//	├── a 10–50 ms
//	│   ├── leaf 10–30 ms
//	│   └── leaf 20–40 ms   (overlaps its sibling: a's children cover 30 ms)
//	└── b 60–90 ms
//
// plus a span outside the root, which must not count.
func TestLayerTableSelfAndResidual(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	recs := []obs.Record{
		{Name: "reproduce.set", ID: 1, Start: at(0), End: at(100)},
		{Name: "study.a", ID: 2, Parent: 1, Start: at(10), End: at(50)},
		{Name: "sqlparse.leaf", ID: 3, Parent: 2, Start: at(10), End: at(30)},
		{Name: "sqlparse.leaf", ID: 4, Parent: 2, Start: at(20), End: at(40)},
		{Name: "diff.b", ID: 5, Parent: 1, Start: at(60), End: at(90)},
		{Name: "elsewhere", ID: 6, Start: at(0), End: at(500)},
	}
	rows, wall, residual := layerTable(recs, 1)
	ms := time.Millisecond
	if wall != 100*ms || residual != 30*ms {
		t.Errorf("wall %v residual %v, want 100ms and 30ms", wall, residual)
	}
	want := []layerRow{
		{"sqlparse", "sqlparse.leaf", 2, 40 * ms, 40 * ms},
		{"diff", "diff.b", 1, 30 * ms, 30 * ms},
		{"study", "study.a", 1, 40 * ms, 10 * ms},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
	var b strings.Builder
	writeLayers(&b, rows, wall, residual)
	if !strings.Contains(b.String(), "residual") || !strings.Contains(b.String(), "30.00%") {
		t.Errorf("layers.txt lacks the residual row:\n%s", b.String())
	}
}

func TestLayerOf(t *testing.T) {
	for span, layer := range map[string]string{
		"study.new": "study", "experiment.granularity": "study", "measure.classify": "study",
		"export.csv": "report", "report.html": "report", "write": "io",
		"sqlparse.parse": "sqlparse", "history.analyze": "history", "store.load": "store",
	} {
		if got := layerOf(span); got != layer {
			t.Errorf("layerOf(%q) = %q, want %q", span, got, layer)
		}
	}
}
