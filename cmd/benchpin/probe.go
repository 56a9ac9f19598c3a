package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/schemaevo/schemaevo/internal/ingest"
	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/serve"
	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// This file is the traced run (-trace 1): a layer probe that breaks the
// end-to-end waits down by module. It runs one artifact set under a
// collecting obs tracer — the program's own spans plus benchpin spans around
// each public call — times store, serve and ingest in-process through their
// public functions, and drives a small fleet to read the daemons' counters.
// It is the same for every workload name; the untraced runs give the
// end-to-end numbers. README.md maps each metric to the end-to-end metric
// it should move.

// perLayer lists the metrics the probe reports.
var perLayer = []metricDef{
	{"study.new_s", "s", "lower"},
	{"corpus.generate_s", "s", "lower"},
	{"collect.generate_s", "s", "lower"},
	{"collect.funnel_s", "s", "lower"},
	{"study.analyze_s", "s", "lower"},
	{"pool.parallelism", "ratio", "higher"},
	{"history.analyze_count", "count", "lower"},
	{"sqlparse.parse_count", "count", "lower"},
	{"sqlparse.parse_mb", "MB", "lower"},
	{"sqlparse.parse_s", "s", "lower"},
	{"diff.compute_count", "count", "lower"},
	{"diff.compute_s", "s", "lower"},
	{"sqlparse.reparse_ratio", "ratio", "lower"},
	{"experiment.granularity_s", "s", "lower"},
	{"experiment.forecast_s", "s", "lower"},
	{"experiment.dialects_s", "s", "lower"},
	{"experiment.other_s", "s", "lower"},
	{"experiment.render_ratio", "ratio", "lower"},
	{"report.html_s", "s", "lower"},
	{"report.svg_s", "s", "lower"},
	{"export.csv_s", "s", "lower"},
	{"export.json_s", "s", "lower"},
	{"report.set_kb", "kB", "lower"},
	{"study.alloc_mb", "MB", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.snapshot_kb", "kB", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"serve.response_kb", "kB", "lower"},
	{"serve.memo_hit_ratio", "ratio", "higher"},
	{"serve.runs_per_miss", "ratio", "lower"},
	{"obs.sse_frames", "count", "lower"},
	{"obs.sse_dropped", "count", "lower"},
	{"obs.sse_first_frame_ms", "ms", "lower"},
	{"proxy.hop_us", "us", "lower"},
	{"proxy.hedged_frac", "ratio", "lower"},
	{"proxy.failovers", "count", "lower"},
	{"ingest.prepare_us", "us", "lower"},
	{"ingest.run_ms", "ms", "lower"},
	{"ingest.upload_kb", "kB", "lower"},
	{"ingest.dedup_ratio", "ratio", "higher"},
	{"load.late_p99_ms", "ms", "lower"},
	{"load.achieved_rps", "1/s", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.residual_frac", "ratio", "lower"},
}

// probe phase lengths: short, because the probe reads counters and layer
// shares, not the end-to-end distributions.
const (
	probeRead   = time.Second
	probeIngest = 2 * time.Second
)

// runProbe runs the layer probe and writes trace.json and layers.txt into
// dir.
func runProbe(ctx context.Context, e *env, dir string) (*result, error) {
	m := map[string]float64{}
	o := &outcome{}
	goldens, err := loadGoldens(e.root)
	if err != nil {
		return nil, err
	}
	checker := &setChecker{goldens: goldens}
	if _, err := study.NewWithOptions(ctx, corpusSeed, study.Options{}); err != nil {
		return nil, err
	}
	setDir, err := e.freshDir("set")
	if err != nil {
		return nil, err
	}
	// Untraced, traced, untraced: the overhead estimate compares the traced
	// set with both neighbours, so neither the process warming up nor the
	// machine drifting biases it. Only one Study is live at a time.
	before, err := runSet(ctx, corpusSeed, setDir)
	if err != nil {
		return nil, err
	}
	checker.check(o, before)
	m["study.alloc_mb"] = float64(before.alloc) / 1e6
	untraced := before.total

	tr := obs.NewTracer(obs.Options{Collect: true})
	traced, err := runSet(obs.WithTracer(ctx, tr), corpusSeed, setDir)
	if err != nil {
		return nil, err
	}
	checker.check(o, traced)
	summary := traced.study.Summary()
	traced.study = nil

	after, err := runSet(ctx, corpusSeed, setDir)
	if err != nil {
		return nil, err
	}
	checker.check(o, after)
	untraced += after.total
	m["trace.overhead_frac"] = traced.total.Seconds()/(untraced.Seconds()/2) - 1
	if err := writeTrace(dir, tr, traced, m); err != nil {
		return nil, err
	}

	arts := map[string][]byte{}
	for name, b := range traced.files {
		arts[snapshotKey(name)] = b
	}
	snap := &store.Snapshot{Seed: corpusSeed, SavedAt: time.Now().UTC(), Summary: summary, Artifacts: arts}
	storeDir, err := e.probeStore(ctx, snap, m, o)
	if err != nil {
		return nil, err
	}
	targets, err := warmTargets(ctx, storeDir, []int64{corpusSeed})
	if err != nil {
		return nil, err
	}
	if err := probeServe(ctx, e.seed, storeDir, targets, m, o); err != nil {
		return nil, err
	}
	if err := probeIngestCalls(ctx, e.seed, m, o); err != nil {
		return nil, err
	}
	if err := e.probeDaemons(ctx, storeDir, targets, m, o); err != nil {
		return nil, err
	}

	r := &result{Seed: e.seed, Trace: true, Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		r.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return r, nil
}

// writeTrace writes trace.json and layers.txt for the traced set and fills
// the metrics its spans give.
func writeTrace(dir string, tr *obs.Tracer, set *setRun, m map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	err = tr.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace.json: %w", err)
	}
	recs := tr.Records()
	var root int64 = -1
	for _, r := range recs {
		if r.Name == "reproduce.set" {
			root = r.ID
		}
	}
	rows, wall, residual := layerTable(recs, root)
	var b strings.Builder
	writeLayers(&b, rows, wall, residual)
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	spanMetrics(recs, root, m)
	m["trace.residual_frac"] = residual.Seconds() / wall.Seconds()
	var size int
	for _, b := range set.files {
		size += len(b)
	}
	m["report.set_kb"] = float64(size) / 1024
	return nil
}

// layerRow aggregates every span of one name.
type layerRow struct {
	layer, name string
	count       int
	total, self time.Duration
}

// layerOf names the repository module a span belongs to.
func layerOf(span string) string {
	prefix, _, _ := strings.Cut(span, ".")
	switch prefix {
	case "measure", "reedlimit", "experiment":
		return "study"
	case "export":
		return "report"
	case "write":
		return "io"
	}
	return prefix
}

// layerTable aggregates the spans below root by name. A span's self time
// is its duration minus the part of it its child spans cover; the residual
// is root's own self time, the share of its wall no span below it covers.
func layerTable(recs []obs.Record, root int64) (rows []layerRow, wall, residual time.Duration) {
	children := map[int64][]obs.Record{}
	var top obs.Record
	for _, r := range recs {
		children[r.Parent] = append(children[r.Parent], r)
		if r.ID == root {
			top = r
		}
	}
	byName := map[string]*layerRow{}
	var walk func(r obs.Record)
	walk = func(r obs.Record) {
		self := r.Duration() - covered(r, children[r.ID])
		if r.ID == root {
			residual = self
		} else {
			row := byName[r.Name]
			if row == nil {
				row = &layerRow{layer: layerOf(r.Name), name: r.Name}
				byName[r.Name] = row
			}
			row.count++
			row.total += r.Duration()
			row.self += self
		}
		for _, c := range children[r.ID] {
			walk(c)
		}
	}
	if top.ID != root {
		return nil, 0, 0
	}
	walk(top)
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	return rows, top.Duration(), residual
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent obs.Record, kids []obs.Record) time.Duration {
	type span struct{ start, end time.Time }
	var ivs []span
	for _, k := range kids {
		s, t := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if t.After(parent.End) {
			t = parent.End
		}
		if t.After(s) {
			ivs = append(ivs, span{s, t})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var sum time.Duration
	var cur span
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.start.After(cur.end):
			sum += cur.end.Sub(cur.start)
			cur = iv
		case iv.end.After(cur.end):
			cur.end = iv.end
		}
	}
	if len(ivs) > 0 {
		sum += cur.end.Sub(cur.start)
	}
	return sum
}

func writeLayers(w io.Writer, rows []layerRow, wall, residual time.Duration) {
	share := func(d time.Duration) float64 { return 100 * d.Seconds() / wall.Seconds() }
	fmt.Fprintf(w, "# one traced artifact set (corpus seed %d), wall %.4f s\n", corpusSeed, wall.Seconds())
	fmt.Fprintln(w, "# self = duration minus the part child spans cover; share = self / wall.")
	fmt.Fprintln(w, "# Spans running in parallel (the history.analyze fan-out) can together exceed the wall.")
	fmt.Fprintf(w, "%-9s %-28s %7s %10s %10s %8s\n", "layer", "span", "count", "total_s", "self_s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-28s %7d %10.4f %10.4f %7.2f%%\n", r.layer, r.name, r.count, r.total.Seconds(), r.self.Seconds(), share(r.self))
	}
	fmt.Fprintf(w, "%-9s %-28s %7d %10.4f %10.4f %7.2f%%\n", "residual", "(no span below reproduce.set)", 1, residual.Seconds(), residual.Seconds(), share(residual))
}

// spanMetrics derives the study, history, sqlparse, diff, experiment and
// report metrics from the traced set's spans.
func spanMetrics(recs []obs.Record, root int64, m map[string]float64) {
	parent := map[int64]int64{}
	name := map[int64]string{}
	for _, r := range recs {
		parent[r.ID], name[r.ID] = r.Parent, r.Name
	}
	under := func(r obs.Record, ancestor string) bool {
		for id := r.Parent; id != 0; id = parent[id] {
			if name[id] == ancestor {
				return true
			}
		}
		return false
	}
	count := map[string]float64{}
	total := map[string]float64{}
	pipeline := map[string]float64{} // totals inside study.new only
	var parsesInNew, analyzeInPool, experiments, otherExperiments float64
	for _, r := range recs {
		if r.ID != root && !under(r, "reproduce.set") {
			continue
		}
		d := r.Duration().Seconds()
		count[r.Name]++
		total[r.Name] += d
		if r.Name == "study.new" || under(r, "study.new") {
			pipeline[r.Name] += d
		}
		switch {
		case r.Name == "sqlparse.parse":
			for _, a := range r.Attrs {
				if n, ok := a.Value().(int64); ok && a.Key == "bytes" {
					m["sqlparse.parse_mb"] += float64(n) / 1e6
				}
			}
			if under(r, "study.new") {
				parsesInNew++
			}
		case r.Name == "history.analyze" && under(r, "study.analyze"):
			analyzeInPool += d
		case strings.HasPrefix(r.Name, "experiment."):
			experiments++
			switch r.Name {
			case "experiment.granularity", "experiment.forecast", "experiment.dialects":
			default:
				otherExperiments += d
			}
		}
	}
	// The pipeline stages count inside study.new only: the dialects
	// experiment generates corpora of its own.
	for _, s := range []string{"study.new", "corpus.generate", "collect.generate", "collect.funnel", "study.analyze"} {
		m[s+"_s"] = pipeline[s]
	}
	for _, s := range []string{"sqlparse.parse", "diff.compute", "experiment.granularity", "experiment.forecast",
		"experiment.dialects", "report.html", "report.svg", "export.csv", "export.json"} {
		m[s+"_s"] = total[s]
	}
	for _, s := range []string{"history.analyze", "sqlparse.parse", "diff.compute"} {
		m[s+"_count"] = count[s]
	}
	m["experiment.other_s"] = otherExperiments
	m["experiment.render_ratio"] = experiments / float64(len(study.ExperimentKeys()))
	if parsesInNew > 0 {
		m["sqlparse.reparse_ratio"] = count["sqlparse.parse"] / parsesInNew
	}
	if total["study.analyze"] > 0 {
		m["pool.parallelism"] = analyzeInPool / total["study.analyze"]
	}
}

// probeStore times store.Open, Disk.Put and Disk.Get on the traced set's
// snapshot, each on a fresh directory, and returns the last directory.
func (e *env) probeStore(ctx context.Context, snap *store.Snapshot, m map[string]float64, o *outcome) (string, error) {
	var puts, opens, gets []float64
	var dir string
	for i := 0; i < 5; i++ {
		var err error
		if dir, err = e.freshDir("store"); err != nil {
			return "", err
		}
		d, err := store.Open(dir)
		if err != nil {
			return "", err
		}
		t := time.Now()
		if err := d.Put(ctx, snap.Seed, snap); err != nil {
			return "", err
		}
		puts = append(puts, time.Since(t).Seconds())
		t = time.Now()
		if d, err = store.Open(dir); err != nil {
			return "", err
		}
		opens = append(opens, time.Since(t).Seconds())
		t = time.Now()
		got, err := d.Get(ctx, snap.Seed)
		if err != nil {
			return "", err
		}
		gets = append(gets, time.Since(t).Seconds())
		ok := len(got.Artifacts) == len(snap.Artifacts)
		for k, b := range snap.Artifacts {
			ok = ok && bytes.Equal(got.Artifacts[k], b)
		}
		o.check(ok)
	}
	m["store.put_ms"] = 1000 * median(puts)
	m["store.open_ms"] = 1000 * median(opens)
	m["store.get_ms"] = 1000 * median(gets)
	var size int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			size += fi.Size()
		}
		return err
	})
	m["store.snapshot_kb"] = float64(size) / 1024
	return dir, err
}

// probeServe calls serve.Server.ServeHTTP in-process on a recorder, for
// warm_read's key mix over a server restored from the probe's store: the
// handler's share of a warm GET without net/http or loopback.
func probeServe(ctx context.Context, seed int64, storeDir string, targets []*warmTarget, m map[string]float64, o *outcome) error {
	disk, err := store.Open(storeDir)
	if err != nil {
		return err
	}
	srv := serve.New(serve.Options{Store: disk})
	if err := srv.Prewarm(ctx, []int64{corpusSeed}); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	var lat []float64
	var size int
	for deadline := time.Now().Add(probeRead); time.Now().Before(deadline); {
		t := targets[r.Intn(len(targets))]
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, t.path, nil)
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		lat = append(lat, time.Since(t0).Seconds())
		size += rec.Body.Len()
		o.check(rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), t.want))
	}
	m["serve.handler_us"] = 1e6 * median(lat)
	m["serve.response_kb"] = float64(size) / 1024 / float64(len(lat))
	return nil
}

// probeIngestCalls times ingest.Prepare and ingest.Run in-process on
// uploads drawn like ingest_mix's.
func probeIngestCalls(ctx context.Context, seed int64, m map[string]float64, o *outcome) error {
	ups, err := makeUploads(seed, 30)
	if err != nil {
		return err
	}
	var prep, runs, sizes []float64
	for _, u := range ups {
		t := time.Now()
		up, err := ingest.Prepare(u.ctype, u.body)
		if err != nil {
			return err
		}
		prep = append(prep, time.Since(t).Seconds())
		t = time.Now()
		res, err := ingest.Run(ctx, up)
		if err != nil {
			return err
		}
		runs = append(runs, time.Since(t).Seconds())
		sizes = append(sizes, float64(len(u.body))/1024)
		o.check(res.ID == u.id)
	}
	m["ingest.prepare_us"] = 1e6 * median(prep)
	m["ingest.run_ms"] = 1000 * median(runs)
	m["ingest.upload_kb"] = median(sizes)
	return nil
}

// probeDaemons drives a two-backend fleet on the probe's store and reads
// the counters behind the serve, proxy, ingest, obs and load metrics: warm
// reads direct and proxied, an ingest burst, and one cold event stream.
func (e *env) probeDaemons(ctx context.Context, storeDir string, targets []*warmTarget, m map[string]float64, o *outcome) error {
	f, _, err := e.startFleet(ctx, storeDir, []int64{corpusSeed})
	if err != nil {
		return err
	}
	defer e.stopFleet(f)
	if err := e.learnOwners(ctx, f, targets, o); err != nil {
		return err
	}
	b1, b2 := f.backends[0], f.backends[1]
	sum := func(ps ...*proc) (map[string]float64, error) {
		out := map[string]float64{}
		for _, p := range ps {
			c, err := e.counters(ctx, p.url)
			if err != nil {
				return nil, err
			}
			for k, v := range c {
				out[k] += v
			}
		}
		return out, nil
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	c0, err := sum(b1, b2, f.proxy)
	if err != nil {
		return err
	}
	direct := e.closedLoop(ctx, probeRead, e.seed, targets, func(t *warmTarget) string { return t.owner })
	proxied := e.closedLoop(ctx, probeRead, e.seed+1, targets, func(*warmTarget) string { return f.proxy.url })
	c1, err := sum(b1, b2, f.proxy)
	if err != nil {
		return err
	}
	p50 := func(ss []sample) float64 {
		var xs []float64
		for _, s := range ss {
			if o.check(s.ok) {
				xs = append(xs, s.d.Seconds())
			}
		}
		return median(xs)
	}
	delta := func(k string) float64 { return c1[k] - c0[k] }
	m["proxy.hop_us"] = 1e6 * (p50(proxied) - p50(direct))
	m["serve.memo_hit_ratio"] = ratio(delta("schemaevod_artifact_memo_hits_total"),
		delta("schemaevod_cache_hits_total")+delta("schemaevod_cache_misses_total"))
	m["proxy.hedged_frac"] = ratio(delta("schemaevo_proxy_hedges_total"), delta("schemaevo_proxy_requests_total"))
	m["proxy.failovers"] = delta("schemaevo_proxy_failovers_total")

	ops, n := planIngest(e.seed, ingestRate, probeIngest)
	ups, err := makeUploads(e.seed, n)
	if err != nil {
		return err
	}
	if c0, err = sum(b2); err != nil {
		return err
	}
	st, err := e.driveIngest(ctx, b2.url, ops, ups, o)
	if err != nil {
		return err
	}
	if c1, err = sum(b2); err != nil {
		return err
	}
	m["ingest.dedup_ratio"] = ratio(delta("schemaevod_ingest_dedup_hits_total"), delta("schemaevod_ingest_accepted_total"))
	m["load.late_p99_ms"] = 1000 * st.lateP99.Seconds()
	m["load.achieved_rps"] = st.rps

	if c0, err = sum(b1); err != nil {
		return err
	}
	sse, err := e.streamSeed(ctx, b1.url, corpusSeed+1)
	if err != nil {
		return err
	}
	o.check(sse.ok())
	if c1, err = sum(b1); err != nil {
		return err
	}
	// The cold seed's write-behind would outlast the probe; nothing needs it.
	e.kill(b1)
	m["obs.sse_frames"] = float64(sse.frames)
	m["obs.sse_dropped"] = float64(sse.dropped)
	m["obs.sse_first_frame_ms"] = 1000 * sse.firstFrame.Seconds()
	m["serve.runs_per_miss"] = ratio(delta("schemaevod_pipeline_runs_total"), delta("schemaevod_cache_misses_total"))
	return nil
}
