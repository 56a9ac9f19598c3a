package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/ingest"
	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// stubPersistServer builds a server whose runner and render seam are cheap
// stubs, so persistence mechanics can be exercised without real pipeline
// runs. runs counts pipeline executions.
func stubPersistServer(st store.Store, cacheSize int, runs *atomic.Int64) *Server {
	srv := New(Options{
		Store:     st,
		CacheSize: cacheSize,
		Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
			runs.Add(1)
			return &study.Study{Seed: seed}, nil
		}),
	})
	srv.render = func(_ context.Context, st *study.Study) (*store.Snapshot, error) {
		return &store.Snapshot{Summary: study.Summary{Seed: st.Seed},
			Artifacts: map[string][]byte{"export.csv": []byte("stub,csv\n")}}, nil
	}
	return srv
}

// TestPersistMarkClears is the regression test for re-persisting: after a
// save lands, the resource must be persistable again, so a snapshot deleted
// from the store (retention GC, scrub, operator) is re-persisted by the next
// run within one daemon generation. (An early write-behind kept a per-key
// in-flight mark that was never cleared on success.) Both resource kinds
// share the one write-behind, so both are exercised.
func TestPersistMarkClears(t *testing.T) {
	for _, kind := range []struct {
		name string
		// serve builds a 1-entry-LRU server persisting the kind into st.
		serve func(st store.Store, runs *atomic.Int64) *Server
		// touch requests resource n (cold or cached) and returns its key.
		touch func(t *testing.T, ts *httptest.Server, n int) int64
		// runs reports how many runs the server executed.
		runs func(srv *Server, runs *atomic.Int64) int64
	}{
		{
			name:  "seed",
			serve: func(st store.Store, runs *atomic.Int64) *Server { return stubPersistServer(st, 1, runs) },
			touch: func(t *testing.T, ts *httptest.Server, n int) int64 {
				if code, _, _ := get(t, ts, fmt.Sprintf("/v1/seeds/%d/artifacts/export.csv", n)); code != 200 {
					t.Fatalf("seed %d: status %d", n, code)
				}
				return int64(n)
			},
			runs: func(_ *Server, runs *atomic.Int64) int64 { return runs.Load() },
		},
		{
			name:  "history",
			serve: func(st store.Store, _ *atomic.Int64) *Server { return New(Options{HistoryStore: st, CacheSize: 1}) },
			touch: func(t *testing.T, ts *httptest.Server, n int) int64 {
				if code, raw := postHistory(t, ts, historyUpload(n), "application/json"); code != 201 && code != 200 {
					t.Fatalf("history %d: status %d: %s", n, code, raw)
				}
				up, err := ingest.Prepare("application/json", historyUpload(n))
				if err != nil {
					t.Fatal(err)
				}
				return up.Key()
			},
			runs: func(srv *Server, _ *atomic.Int64) int64 {
				s := srv.Metrics().Snapshot()
				return s.IngestAccepted - s.IngestDedupHits
			},
		},
	} {
		t.Run(kind.name, func(t *testing.T) {
			m := store.NewMem()
			ctx := context.Background()
			var runs atomic.Int64
			srv := kind.serve(m, &runs)
			ts := httptest.NewServer(srv)
			defer ts.Close()

			key1 := kind.touch(t, ts, 1)
			srv.SyncStore()
			if s := srv.Metrics().Snapshot(); s.StoreSaves != 1 {
				t.Fatalf("store_saves = %d, want 1", s.StoreSaves)
			}

			// The snapshot disappears (a GC eviction or scrub delete) and the
			// cache entry is evicted by a different resource filling the
			// 1-slot LRU.
			if err := m.Delete(ctx, key1); err != nil {
				t.Fatal(err)
			}
			kind.touch(t, ts, 2)
			srv.SyncStore()

			// The next run of resource 1 must persist again — the stale mark
			// would silently drop this save.
			kind.touch(t, ts, 1)
			srv.SyncStore()
			if s := srv.Metrics().Snapshot(); s.StoreSaves != 3 {
				t.Errorf("store_saves = %d, want 3 — persisting mark not cleared after success", s.StoreSaves)
			}
			keys, _ := m.List(ctx)
			if len(keys) != 2 {
				t.Errorf("stored keys = %v, want resource 1 re-persisted alongside 2", keys)
			}
			if n := kind.runs(srv, &runs); n != 3 {
				t.Errorf("runs = %d, want 3", n)
			}
		})
	}
}

// TestScrubEndpoint: /v1/debug/scrub runs one integrity pass on a disk
// store, reports its accounting as JSON, and deletes what failed; backends
// without a lifecycle surface answer 501.
func TestScrubEndpoint(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		d, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := d.Put(ctx, 1, fakeSnapshot(1)); err != nil {
			t.Fatal(err)
		}
		// Flip one byte of one blob, length preserved.
		objects := filepath.Join(dir, "objects")
		des, err := os.ReadDir(objects)
		if err != nil || len(des) == 0 {
			t.Fatalf("no objects: %v", err)
		}
		path := filepath.Join(objects, des[0].Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}

		var runs atomic.Int64
		srv := New(Options{Store: d, Runner: refusingRunner(t, &runs)})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		code, body, hdr := get(t, ts, "/v1/debug/scrub")
		if code != 200 {
			t.Fatalf("status %d: %s", code, body)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type %q", ct)
		}
		var res store.ScrubResult
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatalf("not a ScrubResult: %v: %s", err, body)
		}
		if res.Snapshots != 1 || res.Damaged != 1 || res.Removed != 1 {
			t.Errorf("scrub = %+v, want 1 snapshot, 1 damaged, 1 removed", res)
		}
		if _, err := d.Get(ctx, 1); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("damaged snapshot survived the endpoint scrub: %v", err)
		}
		s := srv.Metrics().Snapshot()
		if s.ScrubRuns != 1 || s.ScrubDamaged != 1 || s.ScrubBlobs == 0 {
			t.Errorf("scrub metrics = runs %d, damaged %d, blobs %d", s.ScrubRuns, s.ScrubDamaged, s.ScrubBlobs)
		}
		if _, mbody, _ := get(t, ts, "/v1/metrics"); !strings.Contains(mbody, "schemaevo_store_scrub_damaged_total 1") {
			t.Error("metrics exposition missing schemaevo_store_scrub_damaged_total")
		}
	})

	t.Run("no lifecycle surface", func(t *testing.T) {
		for name, st := range map[string]store.Store{"mem": store.NewMem(), "none": nil} {
			var runs atomic.Int64
			srv := New(Options{Store: st, Runner: refusingRunner(t, &runs)})
			ts := httptest.NewServer(srv)
			code, body, _ := get(t, ts, "/v1/debug/scrub")
			ts.Close()
			if code != 501 {
				t.Errorf("%s store: status %d, want 501: %s", name, code, body)
			}
			var env struct {
				Code int `json:"code"`
			}
			if err := json.Unmarshal([]byte(body), &env); err != nil || env.Code != 501 {
				t.Errorf("%s store: error envelope: %v (%s)", name, err, body)
			}
		}
	})
}

// TestRunStoreGC: the serve-level sweep applies the configured policy and
// feeds the schemaevo_store_gc_* counters; without a lifecycle surface it
// reports ErrNoLifecycle.
func TestRunStoreGC(t *testing.T) {
	dir := t.TempDir()
	d, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		snap := fakeSnapshot(seed)
		snap.SavedAt = time.Date(2026, 8, 1, int(seed), 0, 0, 0, time.UTC)
		if err := d.Put(ctx, seed, snap); err != nil {
			t.Fatal(err)
		}
	}
	var runs atomic.Int64
	srv := New(Options{Store: d, Runner: refusingRunner(t, &runs), GC: store.GCPolicy{MaxSnapshots: 1}})
	res, err := srv.RunStoreGC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 2 || res.Remaining != 1 {
		t.Errorf("GC = %+v, want 2 evicted, 1 remaining", res)
	}
	if seeds, _ := d.List(ctx); len(seeds) != 1 || seeds[0] != 3 {
		t.Errorf("List = %v, want only the newest seed", seeds)
	}
	s := srv.Metrics().Snapshot()
	if s.GCRuns != 1 || s.GCEvicted != 2 {
		t.Errorf("gc metrics = runs %d, evicted %d; want 1 and 2", s.GCRuns, s.GCEvicted)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, body, _ := get(t, ts, "/v1/metrics"); !strings.Contains(body, "schemaevo_store_gc_evicted_snapshots_total 2") {
		t.Error("metrics exposition missing schemaevo_store_gc_evicted_snapshots_total")
	}

	if _, err := New(Options{Store: store.NewMem()}).RunStoreGC(ctx); !errors.Is(err, ErrNoLifecycle) {
		t.Errorf("mem-store GC err = %v, want ErrNoLifecycle", err)
	}
}

// TestStartGC: the background loop starts only when a bound, an interval,
// and a lifecycle-capable store are all present — and once running, it
// converges the store onto the policy without any explicit call.
func TestStartGC(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, srv := range map[string]*Server{
		"no policy":    New(Options{Store: d, GCInterval: time.Minute}),
		"no interval":  New(Options{Store: d, GC: store.GCPolicy{MaxSnapshots: 1}}),
		"no lifecycle": New(Options{Store: store.NewMem(), GC: store.GCPolicy{MaxSnapshots: 1}, GCInterval: time.Minute}),
	} {
		if srv.StartGC(ctx) {
			t.Errorf("StartGC with %s must not start a loop", name)
		}
	}

	for seed := int64(1); seed <= 3; seed++ {
		snap := fakeSnapshot(seed)
		snap.SavedAt = time.Date(2026, 8, 1, int(seed), 0, 0, 0, time.UTC)
		if err := d.Put(ctx, seed, snap); err != nil {
			t.Fatal(err)
		}
	}
	loopCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	srv := New(Options{Store: d, GC: store.GCPolicy{MaxSnapshots: 1}, GCInterval: 10 * time.Millisecond})
	if !srv.StartGC(loopCtx) {
		t.Fatal("StartGC did not start despite policy, interval and disk store")
	}
	// The sweep's evictions land in the store before it returns and counts
	// itself, so wait for both.
	deadline := time.Now().Add(5 * time.Second)
	for {
		seeds, _ := d.List(ctx)
		runs := srv.Metrics().Snapshot().GCRuns
		if len(seeds) == 1 && runs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background sweep never converged: %d snapshots remain, %d sweeps counted", len(seeds), runs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSelfHealingRestart composes the three bugfixes into the lifecycle
// contract: a store damaged at rest degrades to one cold run on the next
// generation, the write-behind re-persists (the cleared mark allows the
// save, the checksum-verified dedup actually rewrites the bad bytes), and
// the generation after that restores cleanly.
func TestSelfHealingRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Generation A computes seed 1 and persists it.
	dA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runsA atomic.Int64
	srvA := stubPersistServer(dA, 8, &runsA)
	tsA := httptest.NewServer(srvA)
	if code, _, _ := get(t, tsA, "/v1/seeds/1/artifacts/export.csv"); code != 200 {
		t.Fatal("generation A request failed")
	}
	srvA.SyncStore()
	tsA.Close()

	// Bit rot: every blob flips a byte, length preserved — the damage the
	// old size-only dedup could never repair.
	objects := filepath.Join(dir, "objects")
	des, err := os.ReadDir(objects)
	if err != nil || len(des) == 0 {
		t.Fatalf("no objects persisted: %v", err)
	}
	for _, de := range des {
		path := filepath.Join(objects, de.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Generation B: restore fails, degrades to exactly one cold run, and the
	// write-behind replaces the damaged snapshot.
	dB, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runsB atomic.Int64
	srvB := stubPersistServer(dB, 8, &runsB)
	tsB := httptest.NewServer(srvB)
	if code, _, _ := get(t, tsB, "/v1/seeds/1/artifacts/export.csv"); code != 200 {
		t.Fatal("generation B must degrade to a cold run, not fail")
	}
	srvB.SyncStore()
	tsB.Close()
	if n := runsB.Load(); n != 1 {
		t.Errorf("generation B pipeline runs = %d, want 1", n)
	}
	sB := srvB.Metrics().Snapshot()
	if sB.StoreCorrupt != 1 || sB.StoreSaves != 1 {
		t.Errorf("generation B metrics: corrupt %d, saves %d; want 1 and 1", sB.StoreCorrupt, sB.StoreSaves)
	}

	// Generation C: a fresh handle reads the healed snapshot cleanly.
	dC, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := dC.Get(ctx, 1)
	if err != nil {
		t.Fatalf("store did not self-heal: %v", err)
	}
	if string(snap.Artifacts["export.csv"]) != "stub,csv\n" {
		t.Errorf("healed artifact = %q", snap.Artifacts["export.csv"])
	}
}
