package main

import "github.com/schemaevo/schemaevo/internal/stats"

// quantile is the q-quantile of xs under R's default (type 7) definition,
// or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q, stats.Type7)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the percentiles tail may report, highest first, in
// per-mille so the "samples beyond" test is exact integer arithmetic. It
// stops at p99: beyond it, a 10-second phase on a shared 2-core box
// measures the neighbours' scheduling rather than the daemon.
var tailLadder = []struct {
	label    string
	perMille int
}{
	{"p99", 990}, {"p95", 950}, {"p90", 900}, {"p75", 750}, {"p50", 500},
}

// tail reports xs at the highest percentile of the ladder that leaves at
// least ten samples beyond it. With fewer than 20 samples no percentile
// qualifies and it reports the maximum, labelled "max".
func tail(xs []float64) (label string, value float64) {
	for _, p := range tailLadder {
		if len(xs)*(1000-p.perMille) >= 10*1000 {
			return p.label, quantile(xs, float64(p.perMille)/1000)
		}
	}
	if len(xs) == 0 {
		return "none", 0
	}
	return "max", stats.Max(xs)
}
