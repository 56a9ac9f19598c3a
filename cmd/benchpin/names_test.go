package main

import (
	"encoding/json"
	"path/filepath"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesEmittedNames keeps BENCHMARK.json and benchpin in
// step: the same workloads, the same end-to-end and per-layer metrics with
// the same units and directions, all named in [A-Za-z0-9_.-]+.
func TestBenchmarkJSONMatchesEmittedNames(t *testing.T) {
	doc, err := loadBenchDoc(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var names []string
	for i, w := range doc.Workloads {
		names = append(names, w.Name)
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json declares %q, benchpin runs %v", i, w.Name, workloads)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, benchpin runs %d", len(doc.Workloads), len(workloads))
	}

	var declared []metricDef
	for _, m := range doc.EndToEnd {
		declared = append(declared, metricDef{m.Name, m.Unit, m.Better})
	}
	sameDefs(t, "end_to_end", declared, endToEnd)
	declared = nil
	for _, m := range doc.PerLayer {
		declared = append(declared, metricDef{m.Name, m.Unit, m.Better})
	}
	sameDefs(t, "per_layer", declared, perLayer)

	for _, m := range append(append(append([]metricDef(nil), endToEnd...), informational...), perLayer...) {
		names = append(names, m.name)
	}
	for _, name := range names {
		if !valid.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", name)
		}
	}

	// An untraced run records the end-to-end and informational metrics, and
	// its last line carries exactly the end-to-end ones.
	r := result{Metrics: (&outcome{setup: []float64{1}, heapMB: []float64{1}}).metrics()}
	if len(r.Metrics) != len(endToEnd)+len(informational) {
		t.Errorf("an untraced run records %d metrics, want %d", len(r.Metrics), len(endToEnd)+len(informational))
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), informational...) {
		if got, ok := r.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("an untraced run records %s as %+v", m.name, got)
		}
	}
	b, err := summaryLine([]result{r})
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(b, &line); err != nil || len(line.Metrics) != len(endToEnd) {
		t.Errorf("last line %s (err %v) does not carry exactly the end-to-end metrics", b, err)
	}
	for _, m := range endToEnd {
		if _, ok := line.Metrics[m.name]; !ok {
			t.Errorf("last line lacks %s", m.name)
		}
	}
}

func sameDefs(t *testing.T, kind string, declared, emitted []metricDef) {
	t.Helper()
	if len(declared) != len(emitted) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, benchpin emits %d", kind, len(declared), len(emitted))
	}
	for i := range declared {
		if i < len(emitted) && declared[i] != emitted[i] {
			t.Errorf("%s %d: BENCHMARK.json %+v, benchpin %+v", kind, i, declared[i], emitted[i])
		}
	}
}
