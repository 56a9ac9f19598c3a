package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// TestSeedStudyUnreachableAfterRender: once a seed's render has settled,
// the daemon holds only the rendered bytes — the study the pipeline built
// becomes garbage, so a cached seed costs its artifact set, not a live
// study. A finalizer on the runner's fresh study is the witness.
func TestSeedStudyUnreachableAfterRender(t *testing.T) {
	collected := make(chan struct{})
	srv := New(Options{Store: store.NewMem(), Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		st := &study.Study{Seed: seed}
		runtime.SetFinalizer(st, func(*study.Study) { close(collected) })
		return st, nil
	})})
	srv.render = stubRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, body, _ := get(t, ts, "/v1/seeds/4/artifacts/funnel"); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	srv.SyncStore() // the save runs on the render's goroutine
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			if !srv.seeds.cache.Has(4) {
				t.Error("seed 4 is not cached")
			}
			return
		case <-deadline:
			t.Fatal("the seed's study is still reachable after its render settled")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestCacheEntryHoldsBytesOnly pins the cache entry's shape: a key and a
// rendered artifact map, with no field that could keep a live value.
func TestCacheEntryHoldsBytesOnly(t *testing.T) {
	want := map[string]reflect.Type{
		"key":       reflect.TypeOf(int64(0)),
		"artifacts": reflect.TypeOf(map[string][]byte{}),
	}
	typ := reflect.TypeOf(cacheEntry{})
	if typ.NumField() != len(want) {
		t.Fatalf("cacheEntry has %d fields, want %d", typ.NumField(), len(want))
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if want[f.Name] != f.Type {
			t.Errorf("cacheEntry.%s is %v, want only %v", f.Name, f.Type, want)
		}
	}
}

// TestRunnerPanicIs500: a pipeline that panics on the run's own goroutine
// settles its flight with the panic as an error — the waiting request gets
// a 500, the daemon stays up, and the next request runs afresh.
func TestRunnerPanicIs500(t *testing.T) {
	var runs atomic.Int64
	srv := New(Options{Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		if runs.Add(1) == 1 {
			panic("boom")
		}
		return &study.Study{Seed: seed}, nil
	})})
	srv.render = stubRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body, _ := get(t, ts, "/v1/seeds/2/artifacts/funnel")
	if code != http.StatusInternalServerError || !strings.Contains(body, "boom") {
		t.Fatalf("panicking run: status %d: %s", code, body)
	}
	if code, body, _ := get(t, ts, "/v1/seeds/2/artifacts/funnel"); code != http.StatusOK {
		t.Fatalf("retry after the panic: status %d: %s", code, body)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("pipeline runs = %d, want 2", n)
	}
}

// TestRenderFailureCachesNothing: a failed render answers every waiting
// request with a 500 and leaves neither a cache entry nor a snapshot; the
// next request runs the pipeline again and succeeds.
func TestRenderFailureCachesNothing(t *testing.T) {
	m := store.NewMem()
	var runs atomic.Int64
	srv := New(Options{Store: m, Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		runs.Add(1)
		return &study.Study{Seed: seed}, nil
	})})
	var renders atomic.Int64
	srv.render = func(ctx context.Context, st *study.Study) (*store.Snapshot, error) {
		if renders.Add(1) == 1 {
			return nil, errors.New("render exploded")
		}
		return stubRender(ctx, st)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body, _ := get(t, ts, "/v1/seeds/3/artifacts/taxonomy")
	if code != http.StatusInternalServerError || !strings.Contains(body, "render exploded") {
		t.Fatalf("failed render: status %d: %s", code, body)
	}
	srv.SyncStore()
	if srv.seeds.cache.Has(3) {
		t.Error("a failed render was cached")
	}
	if seeds, _ := m.List(context.Background()); len(seeds) != 0 {
		t.Errorf("a failed render was persisted: %v", seeds)
	}
	if code, body, _ := get(t, ts, "/v1/seeds/3/artifacts/taxonomy"); code != http.StatusOK || body != "stub taxonomy for seed 3\n" {
		t.Fatalf("retry: status %d: %q", code, body)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("pipeline runs = %d, want 2", n)
	}
}

// TestRestoredSetMissingKeyReruns: a snapshot written before an artifact
// existed lacks its key. A GET for that known key runs the seed once, and
// the run's complete set replaces the restored one.
func TestRestoredSetMissingKeyReruns(t *testing.T) {
	m := store.NewMem()
	if err := m.Put(context.Background(), 1, fakeSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	srv := New(Options{Store: m, Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		runs.Add(1)
		return &study.Study{Seed: seed}, nil
	})})
	srv.render = stubRender
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, body, _ := get(t, ts, "/v1/seeds/1/artifacts/funnel"); code != http.StatusOK || body != "stored funnel" {
		t.Fatalf("restored funnel: status %d: %q", code, body)
	}
	if code, _, _ := get(t, ts, "/v1/seeds/1/figures/nope.svg"); code != http.StatusNotFound {
		t.Errorf("unknown figure on a restored set: status %d, want 404", code)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("pipeline ran %d times before any key was missing", n)
	}
	if code, body, _ := get(t, ts, "/v1/seeds/1/artifacts/dialects"); code != http.StatusOK || body != "stub dialects for seed 1\n" {
		t.Fatalf("missing key: status %d: %q", code, body)
	}
	if code, body, _ := get(t, ts, "/v1/seeds/1/artifacts/funnel"); code != http.StatusOK || body != "stub funnel for seed 1\n" {
		t.Errorf("funnel after the re-run: status %d: %q, want the replacing set", code, body)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("pipeline runs = %d, want 1", n)
	}
}

// TestColdGetJoinsRender: requests that arrive while a seed renders —
// after its event stream's result, before the set is cached — join the one
// render: no second pipeline, no second render.
func TestColdGetJoinsRender(t *testing.T) {
	var runs, renders atomic.Int64
	srv := New(Options{Runner: RunnerFunc(func(_ context.Context, seed int64) (*study.Study, error) {
		runs.Add(1)
		return &study.Study{Seed: seed}, nil
	})})
	rendering, release := make(chan struct{}), make(chan struct{})
	srv.render = func(ctx context.Context, st *study.Study) (*store.Snapshot, error) {
		renders.Add(1)
		close(rendering)
		<-release
		return stubRender(ctx, st)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The event stream ends at the pipeline, while the render is held.
	resp, br := openStream(t, ts, "/v1/seeds/6/events", nil)
	frames := readSSE(t, br)
	resp.Body.Close()
	if len(frames) == 0 || frames[len(frames)-1].event != "result" {
		t.Fatalf("no result frame before the render finished: %+v", frames)
	}
	<-rendering
	var wg sync.WaitGroup
	for _, key := range []string{"funnel", "report.html", "export.csv"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if code, body, _ := get(t, ts, "/v1/seeds/6/artifacts/"+key); code != http.StatusOK {
				t.Errorf("%s: status %d: %s", key, code, body)
			}
		}(key)
	}
	time.Sleep(20 * time.Millisecond) // let the GETs reach the flight
	close(release)
	wg.Wait()
	if r, n := runs.Load(), renders.Load(); r != 1 || n != 1 {
		t.Errorf("pipeline runs = %d, renders = %d; want 1 and 1", r, n)
	}
	s := srv.Metrics().Snapshot()
	if s.PipelineRuns+s.FlightJoins > s.CacheMisses {
		t.Errorf("runs(%d) + joins(%d) exceed misses(%d)", s.PipelineRuns, s.FlightJoins, s.CacheMisses)
	}
}
