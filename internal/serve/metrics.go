package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
)

// Metrics is the daemon's observability surface: request and cache counters,
// an in-flight gauge, and per-experiment latency histograms. Everything is
// stdlib (atomics + one mutex for the histogram map) and renders in the
// Prometheus text exposition format so stock scrapers can read /metrics.
// The exposition also merges the obs stage registry, so per-stage pipeline
// histograms (schemaevo_stage_*) appear alongside the daemon counters.
type Metrics struct {
	requests         atomic.Int64 // all HTTP requests handled
	errors           atomic.Int64 // responses with status >= 400
	inflight         atomic.Int64 // requests currently being handled
	cacheHits        atomic.Int64 // study lookups answered from the LRU
	cacheMisses      atomic.Int64 // study lookups that had to run or join a flight
	cacheEvicts      atomic.Int64 // studies evicted by the LRU bound
	cacheEntries     atomic.Int64 // studies currently cached
	pipelineRuns     atomic.Int64 // cold pipeline executions
	pipelineInflight atomic.Int64 // pipeline runs currently executing (incl. orphaned)
	orphanedRuns     atomic.Int64 // runs whose waiter timed out while they kept going
	flightJoins      atomic.Int64 // requests deduplicated onto an in-flight run
	timeouts         atomic.Int64 // requests that hit the per-request deadline
	storeHits        atomic.Int64 // seeds restored from a persisted snapshot
	storeMisses      atomic.Int64 // store lookups that found no snapshot
	storeCorrupt     atomic.Int64 // snapshots rejected as corrupt (degraded to cold run)
	storeSaves       atomic.Int64 // write-behind snapshot saves that reached the store
	memoHits         atomic.Int64 // artifacts served from a cached rendered set
	gcRuns           atomic.Int64 // store retention sweeps completed
	gcEvicted        atomic.Int64 // snapshots evicted by the retention policy
	gcOrphanBlobs    atomic.Int64 // unreferenced blobs collected by GC
	gcTmpFiles       atomic.Int64 // stray temp files collected by GC
	scrubRuns        atomic.Int64 // integrity scrubs completed
	scrubBlobs       atomic.Int64 // blobs checked by the scrubber
	scrubDamaged     atomic.Int64 // snapshots the scrubber found damaged (and removed)
	ingestAccepted   atomic.Int64 // history uploads that decoded and content-addressed cleanly
	ingestRejected   atomic.Int64 // history uploads refused (size, media type, malformed body)
	ingestDedup      atomic.Int64 // accepted uploads answered without a fresh ingest run (memo, store, or flight join)
	eventSubscribers atomic.Int64 // live SSE event streams currently attached
	eventsSent       atomic.Int64 // SSE stage events written to clients
	eventsDropped    atomic.Int64 // events lost to full subscriber rings (slow consumers)
	shuttingDown     atomic.Bool  // health turns not-ready during graceful drain
	mu               sync.Mutex
	latencyByExp     map[string]*obs.Histogram
	stages           *obs.StageRegistry
}

// NewMetrics returns a metrics registry wired to the process-wide stage
// registry.
func NewMetrics() *Metrics {
	return newMetricsWithStages(obs.Stages())
}

// newMetricsWithStages injects a private stage registry — the seam tests use
// to assert on stage families without cross-test interference.
func newMetricsWithStages(stages *obs.StageRegistry) *Metrics {
	return &Metrics{latencyByExp: map[string]*obs.Histogram{}, stages: stages}
}

// latencyBuckets are the histogram upper bounds in seconds: cache hits land
// in the microsecond buckets, cold pipeline runs in the multi-second ones.
var latencyBuckets = []float64{
	.000025, .0001, .0005, .001, .005, .025, .1, .5, 1, 2.5, 5, 10, 30,
}

// ObserveLatency records one served artifact's latency under its experiment
// (or artifact) label.
func (m *Metrics) ObserveLatency(experiment string, d time.Duration) {
	m.mu.Lock()
	h, ok := m.latencyByExp[experiment]
	if !ok {
		h = obs.NewHistogram(latencyBuckets)
		m.latencyByExp[experiment] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// Snapshot is a consistent read of the counter state, used by tests and the
// health endpoint.
type Snapshot struct {
	Requests, Errors, Inflight              int64
	CacheHits, CacheMisses, CacheEvictions  int64
	CacheEntries, PipelineRuns, FlightJoins int64
	PipelineInflight, OrphanedRuns          int64
	Timeouts                                int64
	StoreHits, StoreMisses, StoreCorrupt    int64
	StoreSaves, MemoHits                    int64
	GCRuns, GCEvicted, GCOrphanBlobs        int64
	GCTmpFiles                              int64
	ScrubRuns, ScrubBlobs, ScrubDamaged     int64
	IngestAccepted, IngestRejected          int64
	IngestDedupHits                         int64
	EventSubscribers, EventsSent            int64
	EventsDropped                           int64
}

// Snapshot reads every counter.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Requests:         m.requests.Load(),
		Errors:           m.errors.Load(),
		Inflight:         m.inflight.Load(),
		CacheHits:        m.cacheHits.Load(),
		CacheMisses:      m.cacheMisses.Load(),
		CacheEvictions:   m.cacheEvicts.Load(),
		CacheEntries:     m.cacheEntries.Load(),
		PipelineRuns:     m.pipelineRuns.Load(),
		PipelineInflight: m.pipelineInflight.Load(),
		OrphanedRuns:     m.orphanedRuns.Load(),
		FlightJoins:      m.flightJoins.Load(),
		Timeouts:         m.timeouts.Load(),
		StoreHits:        m.storeHits.Load(),
		StoreMisses:      m.storeMisses.Load(),
		StoreCorrupt:     m.storeCorrupt.Load(),
		StoreSaves:       m.storeSaves.Load(),
		MemoHits:         m.memoHits.Load(),
		GCRuns:           m.gcRuns.Load(),
		GCEvicted:        m.gcEvicted.Load(),
		GCOrphanBlobs:    m.gcOrphanBlobs.Load(),
		GCTmpFiles:       m.gcTmpFiles.Load(),
		ScrubRuns:        m.scrubRuns.Load(),
		ScrubBlobs:       m.scrubBlobs.Load(),
		ScrubDamaged:     m.scrubDamaged.Load(),
		IngestAccepted:   m.ingestAccepted.Load(),
		IngestRejected:   m.ingestRejected.Load(),
		IngestDedupHits:  m.ingestDedup.Load(),
		EventSubscribers: m.eventSubscribers.Load(),
		EventsSent:       m.eventsSent.Load(),
		EventsDropped:    m.eventsDropped.Load(),
	}
}

// StatEntry is one row of the /v1/debug/stats join: the accumulated count,
// total and mean of either a request-latency histogram (experiments) or a
// pipeline-stage duration histogram (stages). Latency entries carry bucket-
// interpolated p50/p99 estimates.
type StatEntry struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	AvgSeconds float64 `json:"avg_seconds"`
	P50Seconds float64 `json:"p50_seconds,omitempty"`
	P99Seconds float64 `json:"p99_seconds,omitempty"`
}

// StatsDocument is the /v1/debug/stats payload: per-experiment request
// latency joined with per-stage pipeline durations in one document, so
// "where does a cold request spend its time" needs no metric scraping.
type StatsDocument struct {
	// Experiments maps artifact/experiment keys to their serve-side request
	// latency (what the client waited for).
	Experiments map[string]StatEntry `json:"experiments"`
	// Stages maps obs span names to pipeline-side stage durations (where
	// that wait went).
	Stages map[string]StatEntry `json:"stages"`
}

// StatsDocument builds the latency/stage join from the live registries.
func (m *Metrics) StatsDocument() StatsDocument {
	doc := StatsDocument{Experiments: map[string]StatEntry{}, Stages: StageStats(m.stages)}
	m.mu.Lock()
	defer m.mu.Unlock()
	for key, h := range m.latencyByExp {
		if total := h.Count(); total > 0 {
			sum := h.Sum().Seconds()
			doc.Experiments[key] = StatEntry{
				Count:      total,
				SumSeconds: sum,
				AvgSeconds: sum / float64(total),
				P50Seconds: h.Quantile(0.50),
				P99Seconds: h.Quantile(0.99),
			}
		}
	}
	return doc
}

// StageStats renders a stage registry's non-empty stages as stats entries
// (nil registry = none).
func StageStats(stages *obs.StageRegistry) map[string]StatEntry {
	out := map[string]StatEntry{}
	if stages == nil {
		return out
	}
	for _, st := range stages.Snapshot() {
		if st.Count > 0 {
			out[st.Name] = StatEntry{Count: st.Count, SumSeconds: st.Sum.Seconds(), AvgSeconds: st.Avg().Seconds()}
		}
	}
	return out
}

// WriteTo renders the Prometheus text exposition.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	s := m.Snapshot()
	var n int64
	count := func(name, help string, v int64) error {
		written, err := fmt.Fprintf(w, "# HELP %[1]s %[2]s\n# TYPE %[1]s counter\n%[1]s %[3]d\n", name, help, v)
		n += int64(written)
		return err
	}
	gauge := func(name, help string, v int64) error {
		written, err := fmt.Fprintf(w, "# HELP %[1]s %[2]s\n# TYPE %[1]s gauge\n%[1]s %[3]d\n", name, help, v)
		n += int64(written)
		return err
	}
	for _, e := range []error{
		count("schemaevod_requests_total", "HTTP requests handled.", s.Requests),
		count("schemaevod_request_errors_total", "Responses with status >= 400.", s.Errors),
		gauge("schemaevod_inflight_requests", "Requests currently being handled.", s.Inflight),
		count("schemaevod_cache_hits_total", "Study lookups served from the LRU cache.", s.CacheHits),
		count("schemaevod_cache_misses_total", "Study lookups that missed the cache.", s.CacheMisses),
		count("schemaevod_cache_evictions_total", "Studies evicted by the cache bound.", s.CacheEvictions),
		gauge("schemaevod_cache_entries", "Studies currently cached.", s.CacheEntries),
		count("schemaevod_pipeline_runs_total", "Cold study pipeline executions.", s.PipelineRuns),
		gauge("schemaevod_pipeline_inflight", "Pipeline runs currently executing, including runs whose requester is gone.", s.PipelineInflight),
		count("schemaevod_orphaned_runs_total", "Pipeline runs abandoned by a timed-out request but still running to completion.", s.OrphanedRuns),
		count("schemaevod_flight_joins_total", "Requests deduplicated onto an in-flight pipeline run.", s.FlightJoins),
		count("schemaevod_request_timeouts_total", "Requests that exceeded the per-request deadline.", s.Timeouts),
		count("schemaevod_store_hits_total", "Seeds restored from a persisted snapshot without a pipeline run.", s.StoreHits),
		count("schemaevod_store_misses_total", "Store lookups that found no snapshot.", s.StoreMisses),
		count("schemaevod_store_corrupt_total", "Snapshots rejected as corrupt and degraded to a cold pipeline run.", s.StoreCorrupt),
		count("schemaevod_store_saves_total", "Write-behind snapshot saves that reached the store.", s.StoreSaves),
		count("schemaevod_artifact_memo_hits_total", "Artifacts served from a cached rendered set.", s.MemoHits),
		count("schemaevo_store_gc_runs_total", "Store retention/orphan sweeps completed.", s.GCRuns),
		count("schemaevo_store_gc_evicted_snapshots_total", "Snapshots evicted by the retention policy.", s.GCEvicted),
		count("schemaevo_store_gc_orphan_blobs_total", "Unreferenced blobs collected by the GC sweep.", s.GCOrphanBlobs),
		count("schemaevo_store_gc_tmp_files_total", "Stray temp files collected by the GC sweep.", s.GCTmpFiles),
		count("schemaevo_store_scrub_runs_total", "Store integrity scrubs completed.", s.ScrubRuns),
		count("schemaevo_store_scrub_blobs_checked_total", "Blobs size/checksum-verified by the scrubber.", s.ScrubBlobs),
		count("schemaevo_store_scrub_damaged_total", "Snapshots the scrubber found damaged and removed.", s.ScrubDamaged),
		count("schemaevo_trace_dropped_spans_total", "Spans discarded by trace head sampling, process-wide.", obs.DroppedSpansTotal()),
		count("schemaevod_ingest_accepted_total", "History uploads that decoded and content-addressed cleanly.", s.IngestAccepted),
		count("schemaevod_ingest_rejected_total", "History uploads refused for size, media type or malformed body.", s.IngestRejected),
		count("schemaevod_ingest_dedup_hits_total", "Accepted uploads answered without a fresh ingest run (memo, store or flight join).", s.IngestDedupHits),
		gauge("schemaevod_event_subscribers", "Live SSE span-event streams currently attached.", s.EventSubscribers),
		count("schemaevod_events_sent_total", "SSE stage events written to clients.", s.EventsSent),
		count("schemaevod_events_dropped_total", "Span events lost to full subscriber rings (slow consumers).", s.EventsDropped),
	} {
		if e != nil {
			return n, e
		}
	}

	m.mu.Lock()
	exps := make([]string, 0, len(m.latencyByExp))
	for k := range m.latencyByExp {
		exps = append(exps, k)
	}
	sort.Strings(exps)
	hists := make([]*obs.Histogram, len(exps))
	for i, k := range exps {
		hists[i] = m.latencyByExp[k]
	}
	m.mu.Unlock()

	if len(exps) > 0 {
		written, err := fmt.Fprintf(w, "# HELP schemaevod_experiment_latency_seconds Artifact render latency per experiment.\n# TYPE schemaevod_experiment_latency_seconds histogram\n")
		n += int64(written)
		if err != nil {
			return n, err
		}
	}
	for i, exp := range exps {
		written, err := hists[i].WritePrometheus(w, "schemaevod_experiment_latency_seconds", fmt.Sprintf("experiment=%q", exp))
		n += written
		if err != nil {
			return n, err
		}
	}

	// Merge the pipeline's per-stage histograms (schemaevo_stage_*): corpus
	// synthesis, funnel, per-project analysis, experiment rendering.
	if m.stages != nil {
		written, err := m.stages.WritePrometheus(w)
		n += written
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
