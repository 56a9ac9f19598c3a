// Command schemaevod serves the full reproduction over HTTP: every
// experiment artifact, the dataset exports, the SVG figures and the HTML
// report, per corpus seed, from a bounded LRU cache of rendered artifact
// sets with singleflight deduplication — concurrent requests for one seed
// run the pipeline once and render its full set once. With -store-dir, the
// rendered sets persist as checksummed snapshots and a restarted daemon
// serves every previously-seen seed without a single pipeline run.
//
// Beyond the built-in corpus seeds, the daemon ingests user-supplied DDL
// histories: POST a multi-version SQL dump archive (JSON, tar, or annotated
// dump) to /v1/histories and get back the project's evolution profile, taxon,
// and per-version compatibility classification. Histories are content-
// addressed (SHA-256 of the normalized history), so re-uploads deduplicate
// and results are byte-identical across restarts and shards.
//
// Usage:
//
//	schemaevod                          # listen on 127.0.0.1:8080, memory only
//	schemaevod -addr :9090 -cache 16    # bigger cache, all interfaces
//	schemaevod -store-dir /var/schemaevo -prewarm 1,2,3
//	                                    # persistent store, parallel prewarm
//	schemaevod -store-dir /var/schemaevo -store-max-snapshots 32 -store-max-age 720h
//	                                    # bounded retention: oldest snapshots
//	                                    # GC'd at startup and hourly (jittered)
//	schemaevod -store-dir /var/schemaevo -store-scrub
//	                                    # verify every blob at startup
//
// Endpoints (canonical /v1 surface; errors are JSON
// {error, code, resource, id} — seed routes also keep the legacy seed field):
//
//	GET  /v1/seeds                            cached + stored seeds
//	                                          (?limit=&cursor= paginates)
//	GET  /v1/seeds/{id}                       one seed's resource summary
//	GET  /v1/seeds/{id}/artifacts/{key}       experiment text, export.csv,
//	                                          export.json or report.html
//	GET  /v1/seeds/{id}/figures/{name}        one SVG figure
//	GET  /v1/seeds/{id}/events                SSE stage progress of the seed's
//	                                          run (triggers or joins it),
//	                                          terminal `result` event
//	POST /v1/histories                        ingest a DDL history (JSON, tar
//	                                          of .sql files, or annotated SQL
//	                                          dump); returns profile, taxon and
//	                                          per-version compatibility
//	GET  /v1/histories                        cached + stored history ids
//	                                          (?limit=&cursor= paginates)
//	GET  /v1/histories/{id}                   one history's resource summary
//	GET  /v1/histories/{id}/artifacts/{key}   profile.json, compatibility.json,
//	                                          heartbeat.csv or history.json
//	GET  /v1/histories/{id}/events            SSE progress of the ingest run
//	GET  /v1/experiments                      list of experiment keys
//	GET  /v1/healthz                          readiness + cache digest
//	GET  /v1/metrics                          Prometheus text exposition
//	GET  /v1/debug/events                     SSE firehose of every span event
//	GET  /v1/debug/trace?seed=N               instrumented run, Chrome trace JSON
//	GET  /v1/debug/stats                      latency/stage histogram join
//	GET  /v1/debug/scrub                      on-demand store integrity scrub
//	GET  /debug/pprof/                        stdlib pprof profiles
//
// There are no other routes: the pre-/v1 aliases (/healthz, /metrics,
// /debug/trace, /v1/study/{seed}/...) were removed after their announced
// deprecation date and answer 404.
//
// The daemon logs structured lines (log/slog) to stderr and drains
// gracefully on SIGINT/SIGTERM, flushing pending snapshot saves before
// exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/serve"
	"github.com/schemaevo/schemaevo/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		cache     = flag.Int("cache", 8, "max seeds kept in memory, one rendered artifact set each")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-request deadline")
		drain     = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
		prewarm   = flag.String("prewarm", "", "comma-separated seeds to make servable before traffic")
		workers   = flag.Int("prewarm-workers", 0, "parallel prewarm workers (0 = GOMAXPROCS/2)")
		pipeWork  = flag.Int("pipeline-workers", 0, "per-study pipeline worker pool (0 = GOMAXPROCS); deterministic for any value")
		storeDir  = flag.String("store-dir", "", "directory for persistent study snapshots (empty = memory only)")
		maxSnaps  = flag.Int("store-max-snapshots", 0, "retention bound: keep at most this many snapshots, evicting oldest first (0 = unlimited)")
		maxAge    = flag.Duration("store-max-age", 0, "retention bound: evict snapshots older than this (0 = unlimited)")
		gcEvery   = flag.Duration("store-gc-interval", time.Hour, "cadence of the background retention sweep when a bound is set (jittered; 0 = sweep at startup only)")
		scrub     = flag.Bool("store-scrub", false, "verify every stored blob's size+checksum at startup, deleting damaged snapshots")
		maxUpload = flag.Int64("max-upload-bytes", 0, "POST /v1/histories body bound; larger uploads get 413 (0 = default 8 MiB)")
		traceMax  = flag.Int("trace-max-spans", 0, "head-sampling bound on spans retained per /v1/debug/trace run (0 = default 4096, negative = unlimited)")
		eventBuf  = flag.Int("event-buffer", 0, "per-subscriber SSE event ring capacity; slow consumers drop oldest (0 = default 2048)")
		debug     = flag.Bool("debug", false, "log at debug level (per-stage pipeline events)")
	)
	flag.Parse()

	seeds, err := parseSeeds(*prewarm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schemaevod:", err)
		os.Exit(2)
	}

	level := slog.LevelInfo
	if *debug {
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, level)

	opts := serve.Options{
		CacheSize:       *cache,
		Timeout:         *timeout,
		PrewarmWorkers:  *workers,
		PipelineWorkers: *pipeWork,
		GC:              store.GCPolicy{MaxSnapshots: *maxSnaps, MaxAge: *maxAge},
		GCInterval:      *gcEvery,
		MaxUploadBytes:  *maxUpload,
		TraceMaxSpans:   *traceMax,
		EventBuffer:     *eventBuf,
		Logger:          logger,
	}
	if *storeDir != "" {
		disk, err := store.Open(*storeDir)
		if err != nil {
			logger.Error("store open failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		stored, _ := disk.List(context.Background())
		logger.Info("snapshot store open",
			"dir", disk.Dir(), "stored_seeds", len(stored),
			"invalid_entries_skipped", disk.CorruptAtOpen(), "migrated_entries", disk.Migrated())
		opts.Store = disk
		// Ingested histories persist in a nested namespace of the same
		// directory: seed numbers and truncated content addresses share the
		// int64 key space, so they must not share an index. The seed store's
		// GC sweep skips directories, so the nested store is safe from it.
		histDisk, err := store.Open(filepath.Join(*storeDir, "histories"))
		if err != nil {
			logger.Error("history store open failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		storedIDs, _ := histDisk.ListIDs(context.Background())
		logger.Info("history store open", "dir", histDisk.Dir(), "stored_histories", len(storedIDs))
		opts.HistoryStore = histDisk
	} else if opts.GC.Enabled() || *scrub {
		logger.Warn("store lifecycle flags ignored without -store-dir")
	}
	srv := serve.New(opts)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Lifecycle maintenance runs once at startup: the scrub (opt-in) clears
	// damaged snapshots before they can serve, and the retention sweep
	// reclaims anything a previous generation left over — evicted index rows,
	// orphaned blobs, interrupted-write temp files. The periodic sweep
	// (jittered -store-gc-interval) is started by the serving loop.
	if opts.Store != nil {
		if *scrub {
			if _, err := srv.RunStoreScrub(ctx); err != nil {
				logger.Error("startup scrub failed", "err", err)
				os.Exit(1)
			}
		}
		if opts.GC.Enabled() {
			if _, err := srv.RunStoreGC(ctx); err != nil {
				logger.Error("startup store gc failed", "err", err)
				os.Exit(1)
			}
		}
	}

	if len(seeds) > 0 {
		start := time.Now()
		if err := srv.Prewarm(ctx, seeds); err != nil {
			logger.Error("prewarm failed", "err", err)
			os.Exit(1)
		}
		logger.Info("prewarm complete",
			"seeds", len(seeds), "took", time.Since(start).Round(time.Millisecond))
	}

	if err := serve.ListenAndServe(ctx, *addr, srv, *drain, logger); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
}

// parseSeeds reads the -prewarm list.
func parseSeeds(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -prewarm seed %q", part)
		}
		out = append(out, seed)
	}
	return out, nil
}
