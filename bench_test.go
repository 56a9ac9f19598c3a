// Benchmarks: one per reproduced table/figure (the E01–E18 index of
// DESIGN.md) plus micro-benchmarks of the substrates and the ablations
// DESIGN.md calls out (tolerant vs strict parsing, order-sensitive diffing,
// quantile conventions, reed-percentile sweep).
package schemaevo

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/collect"
	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/corpus"
	"github.com/schemaevo/schemaevo/internal/diff"
	"github.com/schemaevo/schemaevo/internal/gitstore"
	"github.com/schemaevo/schemaevo/internal/history"
	"github.com/schemaevo/schemaevo/internal/serve"
	"github.com/schemaevo/schemaevo/internal/smo"
	"github.com/schemaevo/schemaevo/internal/sqlparse"
	"github.com/schemaevo/schemaevo/internal/stats"
	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
	"github.com/schemaevo/schemaevo/internal/tables"
)

// --- shared fixtures ---------------------------------------------------------

var (
	benchOnce  sync.Once
	benchStudy *study.Study
	benchDump  string
	benchOld   *Schema
	benchNew   *Schema
)

func setup(b *testing.B) *study.Study {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchStudy, err = study.New(1)
		if err != nil {
			panic(err)
		}
		// A realistic 60-table dump and a mutated successor for the parser
		// and diff micro-benches.
		r := rand.New(rand.NewSource(99))
		spec := corpus.Spec{Taxon: core.Active, Commits: 2, ActiveCommits: 1,
			Reeds: 1, TotalActivity: 40, SUPMonths: 1, PUPMonths: 2, TablesStart: 60,
			CommitActivities: []int{40}}
		p := corpus.Build("bench", spec, r, 2015)
		benchDump = p.Hist.Versions[0].SQL
		benchOld = sqlparse.Parse(p.Hist.Versions[0].SQL).Schema
		benchNew = sqlparse.Parse(p.Hist.Versions[1].SQL).Schema
	})
	return benchStudy
}

// --- substrate micro-benchmarks ------------------------------------------------

func BenchmarkParseDDL(b *testing.B) {
	setup(b)
	b.SetBytes(int64(len(benchDump)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sqlparse.Parse(benchDump)
		if res.Schema.NumTables() == 0 {
			b.Fatal("parse produced empty schema")
		}
	}
}

// Ablation: tolerant error recovery vs strict first-error abort on a dump
// with a corrupted statement in the middle.
func BenchmarkParseTolerantWithErrors(b *testing.B) {
	setup(b)
	src := benchDump + "\nCREATE TABLE broken (id INT,,,;\n" + benchDump
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqlparse.ParseMode(src, sqlparse.Tolerant)
	}
}

func BenchmarkParseStrictWithErrors(b *testing.B) {
	setup(b)
	src := benchDump + "\nCREATE TABLE broken (id INT,,,;\n" + benchDump
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqlparse.ParseMode(src, sqlparse.Strict)
	}
}

func BenchmarkDiff(b *testing.B) {
	setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := diff.Compute(benchOld, benchNew)
		if !d.IsActive() {
			b.Fatal("expected activity")
		}
	}
}

// Ablation: order-sensitive diffing.
func BenchmarkDiffOrderSensitive(b *testing.B) {
	setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diff.ComputeOptions(benchOld, benchNew, diff.Options{OrderSensitive: true})
	}
}

func BenchmarkGitCommit(b *testing.B) {
	repo, err := gitstore.Init(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	w := gitstore.NewWorktree(repo, "master")
	sig := gitstore.Signature{Name: "b", Email: "b@b"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Set("schema.sql", []byte(fmt.Sprintf("%s\n-- rev %d\n", benchDump, i)))
		if _, err := w.Commit("bench", sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpusProject(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		spec := corpus.Plan(core.Active, r)
		corpus.Build("bench", spec, r, 2014)
	}
}

func BenchmarkMeasure(b *testing.B) {
	s := setup(b)
	var analyses []*history.Analysis
	for _, m := range s.Measures[:50] {
		analyses = append(analyses, s.Analyses[m.Project])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Measure(analyses[i%len(analyses)], core.DefaultReedLimit)
	}
}

func BenchmarkClassify(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Classify(s.Measures[i%len(s.Measures)])
	}
}

// --- one benchmark per reproduced table/figure --------------------------------

func BenchmarkE01Funnel(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.RunFunnel(context.Background()); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkE02ActivePair(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFig1(context.Background())
	}
}

func BenchmarkE03Reference(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFig2(context.Background())
	}
}

func BenchmarkE04Classify(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunTaxonomy(context.Background())
	}
}

func BenchmarkE05Fig4(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFig4(context.Background())
	}
}

func BenchmarkE06Exemplars(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunExemplars(context.Background())
	}
}

func BenchmarkE11Scatter(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFig10(context.Background())
	}
}

func BenchmarkE12PairwiseKW(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PairwiseKW()
	}
}

func BenchmarkE13Quartiles(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFig12(context.Background())
	}
}

func BenchmarkE14BoxPlot(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFig13(context.Background())
	}
}

func BenchmarkE15OverallKW(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.OverallKW(func(m core.Measures) float64 { return float64(m.TotalActivity) }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE16Shapiro(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Shapiro(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17Durations(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Durations()
	}
}

func BenchmarkE18ReedLimit(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DeriveReedLimit(s.Measures)
	}
}

// BenchmarkServeCached contrasts the two latency regimes of schemaevod: the
// cold request that runs the whole pipeline versus the steady state served
// from the LRU cache. The cold/hit ratio is reported as a metric and
// enforced — caching must buy at least two orders of magnitude.
func BenchmarkServeCached(b *testing.B) {
	srv := serve.New(serve.Options{CacheSize: 2, Timeout: 5 * time.Minute})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/v1/seeds/1/artifacts/export.json"

	request := func() time.Duration {
		start := time.Now()
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		return time.Since(start)
	}

	cold := request() // first request runs the pipeline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
	b.StopTimer()
	hit := b.Elapsed() / time.Duration(b.N)
	ratio := float64(cold) / float64(hit)
	b.ReportMetric(float64(cold.Nanoseconds()), "cold-ns")
	b.ReportMetric(ratio, "cold/hit")
	if ratio < 100 {
		b.Fatalf("cache hit only %.1fx faster than cold (cold %s, hit %s); want >= 100x", ratio, cold, hit)
	}
}

// BenchmarkWarmRestart measures the daemon's restart story: populate a
// persistent snapshot store once, then time how long a *fresh* server —
// empty LRU, same store directory — takes to answer its first request for
// the seed. This is the latency a restarted deployment pays instead of the
// full pipeline; the cold pipeline cost is reported alongside for contrast.
func BenchmarkWarmRestart(b *testing.B) {
	dir := b.TempDir()
	populate, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	seeder := serve.New(serve.Options{CacheSize: 2, Timeout: 5 * time.Minute, Store: populate})
	coldStart := time.Now()
	if err := seeder.Prewarm(context.Background(), []int64{1}); err != nil {
		b.Fatal(err)
	}
	cold := time.Since(coldStart)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := store.Open(dir) // a restarted process re-reads the index
		if err != nil {
			b.Fatal(err)
		}
		srv := serve.New(serve.Options{CacheSize: 2, Timeout: 5 * time.Minute, Store: d,
			Runner: serve.RunnerFunc(func(context.Context, int64) (*study.Study, error) {
				b.Fatal("warm restart must not run the pipeline")
				return nil, nil
			})})
		ts := httptest.NewServer(srv)
		resp, err := http.Get(ts.URL + "/v1/seeds/1/artifacts/export.json")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		ts.Close()
	}
	b.StopTimer()
	warm := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(cold.Nanoseconds()), "cold-populate-ns")
	b.ReportMetric(float64(cold)/float64(warm), "cold/warm")
}

// BenchmarkStoreGC measures one full retention sweep over a store of 64
// synthetic snapshots: eviction of the oldest half, plus the
// whole-directory orphan/temp-file sweep. The sweep holds the store's write
// gate exclusively, so its latency bounds how long concurrent Get/Put
// traffic can stall behind one background GC tick.
func BenchmarkStoreGC(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		d, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		for seed := int64(0); seed < 64; seed++ {
			snap := &store.Snapshot{
				Seed:    seed,
				SavedAt: time.Unix(1700000000+seed*3600, 0).UTC(),
				Summary: study.Summary{Seed: seed},
				Artifacts: map[string][]byte{
					"export.csv":  []byte(fmt.Sprintf("seed,%d\n", seed)),
					"funnel":      []byte(fmt.Sprintf("funnel for seed %d", seed)),
					"report.html": []byte(fmt.Sprintf("<html>report %d</html>", seed)),
				},
			}
			if err := d.Put(ctx, seed, snap); err != nil {
				b.Fatal(err)
			}
		}
		// Debris the sweep must collect: unreferenced blobs and interrupted
		// writes.
		objects := filepath.Join(dir, "objects")
		for j := 0; j < 8; j++ {
			if err := os.WriteFile(filepath.Join(objects, fmt.Sprintf("%064d", j)), []byte("orphan"), 0o644); err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(objects, fmt.Sprintf(".tmp-%d", j)), []byte("partial"), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		res, err := d.GC(ctx, store.GCPolicy{MaxSnapshots: 32})
		if err != nil {
			b.Fatal(err)
		}
		// Each evicted snapshot contributes its 4 now-unreferenced blobs
		// (summary + 3 artifacts) to the orphan count, on top of the 8 planted.
		if res.Evicted != 32 || res.OrphanBlobs != 32*4+8 || res.TmpFiles != 8 {
			b.Fatalf("GC = %+v, want 32 evicted, 136 orphans, 8 tmp files", res)
		}
	}
}

// BenchmarkFullStudy measures the entire pipeline end to end (corpus
// synthesis through classification) — the cost of one complete reproduction.
func BenchmarkFullStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := study.New(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdPipelineParallel is BenchmarkFullStudy on the pooled
// entry point: the cold pipeline fanned out over GOMAXPROCS workers
// (corpus builds, corpus/funnel overlap, per-project analysis). The
// artifacts are byte-identical to the sequential run — the pool buys
// wall clock only.
func BenchmarkColdPipelineParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := study.NewWithOptions(context.Background(), int64(i+1), study.Options{Workers: 0})
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Measures) == 0 {
			b.Fatal("empty study")
		}
	}
}

// TestParseDiffAllocBudget pins the allocation footprint of the parse →
// diff token path, which the zero-copy lexer, the cached normalized
// names and the merge-based Computer are responsible for keeping flat.
// The budget has ~25% headroom over the measured cost; an accidental
// per-token or per-name allocation multiplies it and fails loudly.
func TestParseDiffAllocBudget(t *testing.T) {
	oldSQL := `CREATE TABLE users (
  id INT UNSIGNED NOT NULL AUTO_INCREMENT,
  email VARCHAR(255) NOT NULL,
  created_at DATETIME,
  PRIMARY KEY (id)
) ENGINE=InnoDB DEFAULT CHARSET=utf8;
CREATE TABLE orders (
  id BIGINT NOT NULL,
  user_id INT UNSIGNED,
  total DECIMAL(10,2) DEFAULT '0.00',
  PRIMARY KEY (id),
  CONSTRAINT fk_orders_user FOREIGN KEY (user_id) REFERENCES users (id) ON DELETE CASCADE
);`
	newSQL := strings.Replace(oldSQL, "total DECIMAL(10,2)", "total DECIMAL(12,2),\n  note TEXT", 1)

	cp := diff.NewComputer(diff.Options{})
	allocs := testing.AllocsPerRun(200, func() {
		oldRes := sqlparse.Parse(oldSQL)
		newRes := sqlparse.Parse(newSQL)
		d := cp.Compute(oldRes.Schema, newRes.Schema)
		if d.TypeChange != 1 || d.Injected != 1 {
			t.Fatal("diff miscounted")
		}
	})
	// Measured: ~110 allocs for two parses + one diff of this fixture
	// (schemas, tables, columns, FK identity strings and delta rows —
	// no per-token, per-keyword or per-lookup allocations).
	const budget = 140
	if allocs > budget {
		t.Errorf("parse→diff path allocates %.0f objects per run, budget %d", allocs, budget)
	}
}

// --- pipeline stage benchmarks --------------------------------------------------
//
// One benchmark per obs stage name (the spans studyrun -trace and the
// daemon's schemaevo_stage_* histograms report), so regressions in a single
// stage are attributable. BENCH_pipeline.json pins the measured baseline.

func BenchmarkStageCorpusGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ps := corpus.Generate(corpus.Config{Seed: 1}); len(ps) == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// benchFunnelInputs rebuilds the exact funnel input of the seed-1 study.
func benchFunnelInputs(b *testing.B) collect.GenConfig {
	b.Helper()
	s := setup(b)
	var studyRepos, rigidRepos []string
	for _, p := range s.Corpus {
		if p.Intended == core.HistoryLess {
			rigidRepos = append(rigidRepos, "foss/"+p.Name)
		} else {
			studyRepos = append(studyRepos, "foss/"+p.Name)
		}
	}
	return collect.GenConfig{
		Seed: 1, Targets: collect.DefaultTargets(),
		StudyRepos: studyRepos, RigidRepos: rigidRepos,
	}
}

func BenchmarkStageCollectGenerate(b *testing.B) {
	cfg := benchFunnelInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := collect.GenerateDatasets(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageCollectFunnel(b *testing.B) {
	cfg := benchFunnelInputs(b)
	files, meta, outcomes, err := collect.GenerateDatasets(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := collect.Run(files, meta, outcomes); f.StudySet == 0 {
			b.Fatal("funnel produced empty study set")
		}
	}
}

func BenchmarkStageHistoryAnalyze(b *testing.B) {
	s := setup(b)
	// The busiest history in the corpus — the stage's worst per-project cost.
	var busiest *history.History
	for _, p := range s.Corpus {
		if p.Hist != nil && (busiest == nil || len(p.Hist.Versions) > len(busiest.Versions)) {
			busiest = p.Hist
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := history.Analyze(busiest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageMeasureClassify(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range s.Measures {
			remeasured := core.Measure(s.Analyses[m.Project], s.ReedLimit)
			core.Classify(remeasured)
		}
	}
}

func BenchmarkStageReedLimitDerive(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DeriveReedLimit(s.Measures)
	}
}

// --- ablation sweeps -----------------------------------------------------------

// Quantile convention ablation (DESIGN.md §4): type 2 vs type 7 on the
// per-taxon quartiles.
func BenchmarkQuartilesType2(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	get := func(m core.Measures) float64 { return float64(m.TotalActivity) }
	for i := 0; i < b.N; i++ {
		s.Quartiles(get, stats.Type2)
	}
}

func BenchmarkQuartilesType7(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	get := func(m core.Measures) float64 { return float64(m.TotalActivity) }
	for i := 0; i < b.N; i++ {
		s.Quartiles(get, stats.Type7)
	}
}

// Reed-percentile sweep: how taxa populations shift when the reed limit
// moves (80th/85th/90th percentile equivalents ≈ limits 10/14/20).
func BenchmarkReedLimitSweep(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for _, limit := range []int{10, 14, 20} {
		b.Run(fmt.Sprintf("limit%d", limit), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				counts := map[core.Taxon]int{}
				for _, m := range s.Measures {
					remeasured := core.Measure(s.Analyses[m.Project], limit)
					counts[core.Classify(remeasured)]++
				}
			}
		})
	}
}

// --- extension experiment benchmarks -------------------------------------------

func BenchmarkE19ForeignKeys(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ForeignKeys()
	}
}

func BenchmarkE20TablePatterns(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Electrolysis()
	}
}

func BenchmarkE21Granularity(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	windows := []time.Duration{0, 24 * time.Hour}
	for i := 0; i < b.N; i++ {
		s.Granularity(windows)
	}
}

func BenchmarkE22Sensitivity(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ThresholdSensitivity()
	}
}

func BenchmarkSMODerive(b *testing.B) {
	setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := smo.Derive(benchOld, benchNew)
		if len(ops) == 0 {
			b.Fatal("no ops derived")
		}
	}
}

func BenchmarkSMOReplay(b *testing.B) {
	setup(b)
	ops := smo.Derive(benchOld, benchNew)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := smo.Apply(benchOld.Clone(), ops); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableLives(b *testing.B) {
	s := setup(b)
	a := s.Analyses[s.Measures[len(s.Measures)-1].Project] // an active project
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables.Analyze(a)
	}
}

func BenchmarkExportCSV(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.ExportCSV(); len(out) == 0 {
			b.Fatal("empty export")
		}
	}
}

func BenchmarkE23Forecast(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Forecast([]float64{0.5})
	}
}

func BenchmarkSpearman(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SurvivorDurationCorrelation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackedRead(b *testing.B) {
	// Round-trip through a git-repacked repository, the real-clone path.
	gitBin, err := exec.LookPath("git")
	if err != nil {
		b.Skip("git not installed")
	}
	dir := b.TempDir()
	repo, err := gitstore.Init(dir)
	if err != nil {
		b.Fatal(err)
	}
	w := gitstore.NewWorktree(repo, "master")
	sig := gitstore.Signature{Name: "b", Email: "b@b", When: time.Unix(1600000000, 0)}
	for i := 0; i < 20; i++ {
		sig.When = sig.When.Add(time.Hour)
		w.Set("schema.sql", []byte(fmt.Sprintf("%s\n-- rev %d\n", benchDump, i)))
		if _, err := w.Commit("c", sig); err != nil {
			b.Fatal(err)
		}
	}
	os.WriteFile(filepath.Join(dir, "config"), []byte("[core]\n\tbare = true\n"), 0o644)
	if out, err := exec.Command(gitBin, "--git-dir", dir, "repack", "-a", "-d").CombinedOutput(); err != nil {
		b.Fatalf("git repack: %v: %s", err, out)
	}
	head, _ := repo.Head()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, _ := gitstore.Open(dir)
		hist, err := fresh.PathHistory(head, "schema.sql")
		if err != nil || len(hist) != 20 {
			b.Fatalf("history = %d, err %v", len(hist), err)
		}
	}
}

func BenchmarkE25Tempo(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tempo()
	}
}

func BenchmarkE26Shapes(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ShapeDistribution()
	}
}
