// Command benchpin is the repository's end-to-end benchmark. It measures
// what the users of schemaevo wait for — regenerating the paper's artifact
// set, a cold seed served and persisted by the daemon, warm artifact reads
// direct and through the sharded proxy, and history uploads — and checks
// every output it times against an oracle before it reports a number.
//
// benchpin is a module of its own that replaces the repository's module
// with ../.., so the repository's go test ./... does not build it. Run it
// from the repository root as `go -C cmd/benchpin run . <args>` or through
// run.sh:
//
//	benchpin -seed 1                              # all four workloads
//	benchpin -workload warm_read -seed 3 -seconds 10
//	benchpin -workload reproduce -trace 1         # traced layer probe
//	benchpin compare base/*.json -- change/*.json # verdict per metric
//	benchpin baseline runs/*.json                 # median/IQR summary
//
// Each run prints a table of its metrics, writes a result JSON, and ends
// with one JSON line {correct, attempted, failed, metrics}. An untraced run
// reports the end-to-end metrics of BENCHMARK.json; -trace 1 runs the
// layer probe instead (see probe.go) and reports the per-layer metrics.
// README.md explains the workloads and how each layer metric maps to the
// end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// rootModule is the module path of the system under test.
const rootModule = "github.com/schemaevo/schemaevo"

// workloadTimeout bounds one workload (or the probe) so a wedged daemon
// ends the run with an error instead of hanging it.
const workloadTimeout = 150 * time.Second

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// roles says what the primary, secondary and tertiary latency metrics
	// time on this workload.
	roles [3]string
	run   func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{"reproduce", [3]string{
		"complete artifact set, as studyrun -out -csv -json -svg -html",
		"experiment texts render + write within the set (the -out part)",
		"report.html render + write within the set",
	}, runReproduce},
	{"cold_seed", [3]string{
		"cold seed: SSE request until the snapshot is stored",
		"cold seed: SSE request until the result frame",
		"first report.html GET after a daemon restart",
	}, runColdSeed},
	{"warm_read", [3]string{
		"warm artifact GET, direct to the owning backend",
		"warm artifact GET through schemaevo-proxy",
		"warm report.html GET, direct",
	}, runWarmRead},
	{"ingest_mix", [3]string{
		"new history upload, timed from its due time",
		"re-upload of an accepted history (dedup), from due time",
		"artifact GET of an accepted history, from due time",
	}, func(ctx context.Context, e *env) (*outcome, error) {
		return runIngestMix(ctx, e, ingestRate, e.seconds)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics every untraced run reports on every workload,
// each with a regression bound in BENCHMARK.json. The three latency roles
// mean different waits per workload (workload.roles).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"primary_p50_ms", "ms", "lower"},
	{"secondary_p50_ms", "ms", "lower"},
	{"tertiary_p50_ms", "ms", "lower"},
}

// informational lists what an untraced run records besides, in its table
// and result file but not on its last line: on a shared 2-core box their
// run-to-run spread exceeds any usable regression bound (README.md).
var informational = []metricDef{
	{"primary_tail_ms", "ms", "lower"},
	{"secondary_tail_ms", "ms", "lower"},
	{"mem_mb", "MB", "lower"},
}

// outcome is what one workload run measured.
type outcome struct {
	setup     []float64    // seconds per set-up of the system under test
	waits     [3][]float64 // seconds per successful operation, by role
	heapMB    []float64    // live heap of the system under test after GC
	attempted int
	failed    int
}

// check counts one operation and whether its output was correct.
func (o *outcome) check(ok bool) bool {
	o.attempted++
	if !ok {
		o.failed++
	}
	return ok
}

// metric is one reported value. N and Stat document the sample behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Stat  string  `json:"stat,omitempty"`
}

// metrics turns an outcome into the end-to-end and informational metrics.
func (o *outcome) metrics() map[string]metric {
	out := map[string]metric{
		"setup_s": {median(o.setup), "s", len(o.setup), "p50"},
		"mem_mb":  {median(o.heapMB), "MB", len(o.heapMB), "p50"},
	}
	for i, role := range []string{"primary", "secondary", "tertiary"} {
		xs := o.waits[i]
		out[role+"_p50_ms"] = metric{1000 * median(xs), "ms", len(xs), "p50"}
		if i < 2 {
			label, v := tail(xs)
			out[role+"_tail_ms"] = metric{1000 * v, "ms", len(xs), label}
		}
	}
	return out
}

// result is one run as written to the result JSON.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is the on-disk form compare and baseline read.
type resultFile struct {
	Results []result `json:"results"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "baseline":
			return runBaseline(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("benchpin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: reproduce, cold_seed, warm_read or ingest_mix (default: all four)")
		seed     = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 10, "measured seconds per workload")
		trace    = fs.Int("trace", 0, "1 = run the traced layer probe and report the per-layer metrics")
		traceDir = fs.String("trace-dir", "", "directory for trace.json and layers.txt (default .bench_build/trace/<workload>-seed<N>)")
		out      = fs.String("out", "", "result JSON file (default .bench_build/results/<workload>-seed<N>[-trace].json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchpin: -trace takes 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "benchpin: -seconds must be at least 1")
		return 2
	}
	selected := workloads
	label := "all"
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchpin: unknown workload %q\n", *name)
			return 2
		}
		selected, label = []workload{w}, w.name
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchpin:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	base := filepath.Join(root, ".bench_build", "work")
	err = os.MkdirAll(base, 0o755)
	var work string
	if err == nil {
		work, err = os.MkdirTemp(base, "run-")
	}
	var e *env
	if err == nil {
		e, err = newEnv(ctx, root, work, *seed, time.Duration(*seconds)*time.Second, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchpin:", err)
		return 1
	}
	defer e.close()

	suffix := fmt.Sprintf("%s-seed%d", label, *seed)
	var results []result
	if *trace == 1 {
		dir := *traceDir
		if dir == "" {
			dir = filepath.Join(root, ".bench_build", "trace", suffix)
		}
		wctx, cancel := context.WithTimeout(ctx, workloadTimeout)
		r, err := runProbe(wctx, e, dir)
		cancel()
		if err != nil {
			fmt.Fprintln(stderr, "benchpin: probe:", err)
			return 1
		}
		r.Workload = label
		results = append(results, *r)
		printLayerTable(stdout, r)
		fmt.Fprintf(stdout, "wrote %s and %s\n", filepath.Join(dir, "trace.json"), filepath.Join(dir, "layers.txt"))
		suffix += "-trace"
	} else {
		for _, w := range selected {
			fmt.Fprintf(stderr, "benchpin: %s seed=%d seconds=%d\n", w.name, *seed, *seconds)
			wctx, cancel := context.WithTimeout(ctx, workloadTimeout)
			o, err := w.run(wctx, e)
			cancel()
			if err != nil {
				fmt.Fprintf(stderr, "benchpin: %s: %v\n", w.name, err)
				return 1
			}
			r := result{
				Workload: w.name, Seed: *seed, Correct: o.failed == 0,
				Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics(),
			}
			results = append(results, r)
			printWorkloadTable(stdout, w, r)
		}
	}

	path := *out
	if path == "" {
		path = filepath.Join(root, ".bench_build", "results", suffix+".json")
	}
	if err := writeResults(path, results); err != nil {
		fmt.Fprintln(stderr, "benchpin:", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote", path)
	line, err := summaryLine(results)
	if err != nil {
		fmt.Fprintln(stderr, "benchpin:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// summaryLine is the last line of standard output: one JSON object with
// exactly the keys correct, attempted, failed and metrics, the metrics being
// those BENCHMARK.json declares (end-to-end, or per-layer for a traced run).
// With several workloads, metric names are prefixed "<workload>/".
func summaryLine(results []result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		declared := endToEnd
		if r.Trace {
			declared = perLayer
		}
		for _, d := range declared {
			name, m := d.name, r.Metrics[d.name]
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	return json.Marshal(line)
}

func writeResults(path string, results []result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(resultFile{Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printWorkloadTable(w io.Writer, wl workload, r result) {
	fmt.Fprintf(w, "\n%s (seed %d): correct=%v attempted=%d failed=%d\n",
		wl.name, r.Seed, r.Correct, r.Attempted, r.Failed)
	what := map[string]string{
		"setup_s":           "set-up of the system under test",
		"primary_p50_ms":    wl.roles[0],
		"primary_tail_ms":   wl.roles[0],
		"secondary_p50_ms":  wl.roles[1],
		"secondary_tail_ms": wl.roles[1],
		"tertiary_p50_ms":   wl.roles[2],
		"mem_mb":            "live heap of the system under test",
	}
	for i, d := range append(append([]metricDef(nil), endToEnd...), informational...) {
		if i == len(endToEnd) {
			fmt.Fprintln(w, "  informational, no bound:")
		}
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "  %-18s %12.4f %-3s %-5s n=%-6d %s\n", d.name, m.Value, m.Unit, m.Stat, m.N, what[d.name])
	}
}

func printLayerTable(w io.Writer, r *result) {
	fmt.Fprintf(w, "\nlayer probe (seed %d): correct=%v attempted=%d failed=%d\n",
		r.Seed, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// repoRoot walks up from the working directory to the directory whose
// go.mod declares the system under test's module.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && modulePath(b) == rootModule {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the " + rootModule + " module")
		}
		dir = parent
	}
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}
