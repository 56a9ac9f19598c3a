package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"github.com/schemaevo/schemaevo/internal/stats"
)

// benchDoc is the part of BENCHMARK.json compare and the tests read.
type benchDoc struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchDoc(root string) (*benchDoc, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &doc, nil
}

// readResults reads result files, leaving out (and naming on log) every
// run that was not correct: its numbers may time wrong answers or, for an
// invalid ingest_mix run, the load generator.
func readResults(paths []string, log io.Writer) ([]result, error) {
	var out []result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Results {
			if !r.Correct {
				fmt.Fprintf(log, "benchpin: %s: leaving out the %s run, %d of %d operations failed\n", p, r.Workload, r.Failed, r.Attempted)
				continue
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// series groups the results' values by workload and metric, in file order.
func series(results []result) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, r := range results {
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// side summarises one side of a comparison.
type side struct {
	n            int
	q1, med, q3  float64
	spread       float64 // (q3 − q1) / median
	minMaxSpread float64 // (max − min) / median
}

func summarize(xs []float64) side {
	s := side{n: len(xs), q1: quantile(xs, 0.25), med: median(xs), q3: quantile(xs, 0.75)}
	if s.med != 0 {
		s.spread = (s.q3 - s.q1) / math.Abs(s.med)
		s.minMaxSpread = (stats.Max(xs) - stats.Min(xs)) / math.Abs(s.med)
	}
	return s
}

// comparison is one (workload, metric) row of compare.
type comparison struct {
	a, b    side
	change  float64 // (B − A) / A, signed so that positive is worse
	wins    float64 // share of (A, B) pairs in which B reads better
	p       float64 // Mann–Whitney p-value; NaN when undefined
	verdict string
}

// compareSamples judges the change B against the parent A for one metric.
// A negative bound marks a metric without one (per-layer).
//
//   - better: B wins at least nine tenths of all (A, B) pairs and the
//     medians differ by more than A's interquartile range;
//   - unresolved: otherwise, when either side's spread exceeds the bound and
//     not every B reads better than every A;
//   - worse: B's median is worse than A's by more than the bound;
//   - within-bound: the rest.
func compareSamples(a, b []float64, lowerBetter bool, bound float64) comparison {
	c := comparison{a: summarize(a), b: summarize(b), p: math.NaN()}
	if c.a.med != 0 {
		c.change = (c.b.med - c.a.med) / math.Abs(c.a.med)
	}
	if !lowerBetter {
		c.change = -c.change
	}
	wins := 0
	for _, x := range a {
		for _, y := range b {
			if (lowerBetter && y < x) || (!lowerBetter && y > x) {
				wins++
			}
		}
	}
	if len(a) > 0 && len(b) > 0 {
		c.wins = float64(wins) / float64(len(a)*len(b))
	}
	if res, err := stats.MannWhitneyApprox(a, b); err == nil {
		c.p = res.P
	}
	switch {
	case bound < 0:
		c.verdict = "n/a"
	case c.wins >= 0.9 && math.Abs(c.b.med-c.a.med) > c.a.q3-c.a.q1:
		c.verdict = "better"
	case math.Max(c.a.spread, c.b.spread) > bound && c.wins < 1:
		c.verdict = "unresolved"
	case c.change > bound:
		c.verdict = "worse"
	default:
		c.verdict = "within-bound"
	}
	return c
}

// runCompare is `benchpin compare A.json… -- B.json…`: the parent's runs
// before the separator, the change's after. It prints one row per
// (workload, metric) present on both sides and exits 1 when any end-to-end
// metric is worse or unresolved.
func runCompare(args []string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: benchpin compare A.json… -- B.json…")
		return 2
	}
	ra, err := readResults(args[:sep], stderr)
	if err == nil {
		var rb []result
		if rb, err = readResults(args[sep+1:], stderr); err == nil {
			return printComparison(stdout, stderr, series(ra), series(rb))
		}
	}
	fmt.Fprintln(stderr, "benchpin:", err)
	return 1
}

func printComparison(stdout, stderr io.Writer, a, b map[[2]string][]float64) int {
	root, err := repoRoot()
	var doc *benchDoc
	if err == nil {
		doc, err = loadBenchDoc(root)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchpin:", err)
		return 1
	}
	type rule struct {
		lower bool
		bound float64
	}
	rules := map[string]rule{}
	var order []string
	for _, m := range doc.EndToEnd {
		rules[m.Name] = rule{m.Better == "lower", m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range doc.PerLayer {
		rules[m.Name] = rule{m.Better == "lower", -1}
		order = append(order, m.Name)
	}
	for _, m := range informational {
		rules[m.name] = rule{m.better == "lower", -1}
		order = append(order, m.name)
	}
	rank := map[string]int{}
	for i, w := range workloads {
		rank[w.name] = i
	}
	for i, name := range order {
		rank[name] = i
	}
	var keys [][2]string
	for k := range a {
		if _, ok := b[k]; ok {
			if _, known := rules[k[1]]; known {
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return rank[keys[i][0]] < rank[keys[j][0]]
		}
		return rank[keys[i][1]] < rank[keys[j][1]]
	})
	fmt.Fprintf(stdout, "%-10s %-24s %28s %28s %8s %6s %7s  %s\n",
		"workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change", "B wins", "p", "verdict")
	code := 0
	for _, k := range keys {
		r := rules[k[1]]
		c := compareSamples(a[k], b[k], r.lower, r.bound)
		cell := func(s side) string { return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.med, s.q1, s.q3, s.n) }
		fmt.Fprintf(stdout, "%-10s %-24s %28s %28s %+7.1f%% %5.0f%% %7.3g  %s\n",
			k[0], k[1], cell(c.a), cell(c.b), 100*c.change, 100*c.wins, c.p, c.verdict)
		if c.verdict == "worse" || c.verdict == "unresolved" {
			code = 1
		}
	}
	return code
}

// runBaseline is `benchpin baseline runs…`: the median, interquartile and
// max/min spread of every untraced metric over the given runs, with the
// machine they ran on, as JSON.
func runBaseline(args []string, stdout, stderr io.Writer) int {
	results, err := readResults(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchpin:", err)
		return 1
	}
	type stat struct {
		Median       float64 `json:"median"`
		Q1           float64 `json:"q1"`
		Q3           float64 `json:"q3"`
		IQRFrac      float64 `json:"iqr_frac"`
		MinMaxSpread float64 `json:"minmax_frac"`
		Unit         string  `json:"unit"`
		Runs         int     `json:"runs"`
	}
	doc := struct {
		CPU     string                     `json:"cpu"`
		NProc   int                        `json:"nproc"`
		Go      string                     `json:"go"`
		Metrics map[string]map[string]stat `json:"metrics"`
	}{CPU: cpuModel(), NProc: runtime.NumCPU(), Go: runtime.Version(), Metrics: map[string]map[string]stat{}}
	units := map[string]string{}
	var untraced []result
	for _, r := range results {
		if !r.Trace {
			untraced = append(untraced, r)
			for name, m := range r.Metrics {
				units[name] = m.Unit
			}
		}
	}
	for k, xs := range series(untraced) {
		s := summarize(xs)
		if doc.Metrics[k[0]] == nil {
			doc.Metrics[k[0]] = map[string]stat{}
		}
		doc.Metrics[k[0]][k[1]] = stat{s.med, s.q1, s.q3, s.spread, s.minMaxSpread, units[k[1]], s.n}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchpin:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// cpuModel names the processor, for the baseline's record of the machine.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
