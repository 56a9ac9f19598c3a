package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/study"
)

// corpusSeed is the corpus the pipeline-bound workloads (reproduce,
// cold_seed) and the layer probe run: the paper corpus, whose experiment
// texts are committed as goldens. It is pinned rather than drawn from
// -seed because the cost of the pipeline and of one artifact set varies by
// about ±30% between corpus seeds, far beyond any regression bound.
const corpusSeed = 1

// minSamples is the fewest operations the slow closed-loop workloads take,
// however short -seconds is, so their medians rest on more than one run.
const minSamples = 3

// daemonSetups is how many times the daemon workloads start their system
// under test; a start takes milliseconds, so setup_s can rest on many.
const daemonSetups = 20

// reproduceSetups is how many timed pipeline warm-ups reproduce's setup_s
// rests on. They follow one untimed call: a process's first pipeline also
// grows the heap from nothing, and it took up to 1.7 times as long as the
// calls after it.
const reproduceSetups = 5

// goldenDir holds the committed corpusSeed experiment texts, relative to
// the repository root.
var goldenDir = filepath.Join("cmd", "studyrun", "testdata", "golden")

// setRun is one artifact set: its timings and every file it wrote.
type setRun struct {
	total, texts, html time.Duration
	alloc              uint64 // bytes allocated while producing the set
	files              map[string][]byte
	study              *study.Study
}

// runSet does in-process exactly what `studyrun -out -csv -json -svg -html`
// does, in studyrun's order, writing into dir. When ctx carries a
// collecting tracer, every public call it makes sits under a benchpin span
// (the program's own study.new and experiment.<key> spans, plus export.*,
// report.* and write), all below one reproduce.set span.
func runSet(ctx context.Context, seed int64, dir string) (*setRun, error) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	ctx, setSpan := obs.Start(ctx, "reproduce.set", obs.Int("seed", seed))
	defer setSpan.End()
	start := time.Now()
	st, err := study.NewWithOptions(ctx, seed, study.Options{})
	if err != nil {
		return nil, err
	}
	r := &setRun{files: map[string][]byte{}, study: st}
	write := func(name string, b []byte) error {
		_, sp := obs.Start(ctx, "write")
		defer sp.End()
		r.files[name] = b
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}

	_, sp := obs.Start(ctx, "export.csv")
	csv := st.ExportCSV()
	sp.End()
	if err := write("export.csv", []byte(csv)); err != nil {
		return nil, err
	}
	_, sp = obs.Start(ctx, "export.json")
	js, err := st.ExportJSON()
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := write("export.json", []byte(js)); err != nil {
		return nil, err
	}
	_, sp = obs.Start(ctx, "report.svg")
	figs := st.SVGFigures()
	sp.End()
	names := make([]string, 0, len(figs))
	for name := range figs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := write(filepath.Join("svg", name), []byte(figs[name])); err != nil {
			return nil, err
		}
	}
	htmlStart := time.Now()
	hctx, sp := obs.Start(ctx, "report.html")
	html, err := st.HTMLReport(hctx)
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := write("report.html", []byte(html)); err != nil {
		return nil, err
	}
	r.html = time.Since(htmlStart)
	textStart := time.Now()
	for _, e := range study.Experiments() {
		if err := write(e.Key+".txt", []byte(e.Render(ctx, st))); err != nil {
			return nil, err
		}
	}
	r.texts = time.Since(textStart)
	r.total = time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	return r, nil
}

// loadGoldens reads the committed experiment texts, keyed the way runSet
// names its files.
func loadGoldens(root string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, key := range study.ExperimentKeys() {
		b, err := os.ReadFile(filepath.Join(root, goldenDir, key+".txt"))
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", key, err)
		}
		out[key+".txt"] = b
	}
	return out, nil
}

// setChecker is the reproduce oracle: every set's experiment texts must
// equal the goldens, and every file of every set must equal the first set's.
type setChecker struct {
	goldens map[string][]byte
	first   map[string][sha256.Size]byte
}

func (c *setChecker) check(o *outcome, r *setRun) {
	if c.first == nil {
		c.first = map[string][sha256.Size]byte{}
		for name, b := range r.files {
			c.first[name] = sha256.Sum256(b)
		}
	}
	o.check(len(r.files) == len(c.first))
	for name, b := range r.files {
		ok := sha256.Sum256(b) == c.first[name]
		if want, golden := c.goldens[name]; golden {
			ok = ok && bytes.Equal(b, want)
		}
		o.check(ok)
	}
}

// runReproduce is the researcher's wait: regenerate the whole artifact set.
// Set-up is the pipeline warm-up: one untimed call, then reproduceSetups
// timed ones. The measured sets follow until both minSamples sets and
// -seconds are done. Everything runs corpusSeed, so -seed changes nothing
// here.
func runReproduce(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{}
	for i := 0; i <= reproduceSetups; i++ {
		t := time.Now()
		if _, err := study.NewWithOptions(ctx, corpusSeed, study.Options{}); err != nil {
			return nil, err
		}
		if i > 0 {
			o.setup = append(o.setup, time.Since(t).Seconds())
		}
	}
	goldens, err := loadGoldens(e.root)
	if err != nil {
		return nil, err
	}
	checker := &setChecker{goldens: goldens}
	var last *setRun
	start := time.Now()
	for n := 0; n < minSamples || time.Since(start) < e.seconds; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		last = nil // one Study live at a time, as in a studyrun process
		dir, err := e.freshDir("set")
		if err != nil {
			return nil, err
		}
		r, err := runSet(ctx, corpusSeed, dir)
		if err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
		o.waits[0] = append(o.waits[0], r.total.Seconds())
		o.waits[1] = append(o.waits[1], r.texts.Seconds())
		o.waits[2] = append(o.waits[2], r.html.Seconds())
		checker.check(o, r)
		last = r
	}
	// The live heap with the last Study and its rendered set still
	// referenced: work moved from compute into memory shows here.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.heapMB = append(o.heapMB, float64(ms.HeapAlloc)/1e6)
	runtime.KeepAlive(last)
	if o.failed > 0 {
		fmt.Fprintf(e.log, "benchpin: reproduce: %d artifacts differ from the goldens or the first set\n", o.failed)
	}
	return o, nil
}

// snapshotKey maps a runSet file name to the artifact key the daemon's
// memo and store snapshots use.
func snapshotKey(file string) string {
	switch {
	case strings.HasPrefix(file, "svg/"):
		return "figures/" + strings.TrimPrefix(file, "svg/")
	case strings.HasSuffix(file, ".txt"):
		return strings.TrimSuffix(file, ".txt")
	}
	return file
}
