package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestIndexBytesMatchMarshalIndent: index.json assembled from the cached
// entry encodings equals json.MarshalIndent of the whole index after every
// step of random Put/Delete/GC sequences — and so does the index a fresh
// Open re-encodes from disk.
func TestIndexBytesMatchMarshalIndent(t *testing.T) {
	ctx := context.Background()
	for run := int64(0); run < 5; run++ {
		rng := rand.New(rand.NewSource(run))
		dir := t.TempDir()
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			t.Helper()
			got, err := os.ReadFile(filepath.Join(dir, indexFile))
			if err != nil {
				t.Fatalf("run %d %s: %v", run, step, err)
			}
			d.mu.Lock()
			want, err := json.MarshalIndent(diskIndex{Version: indexFormat, Entries: d.sortedEntriesLocked()}, "", "  ")
			d.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(got, want) {
				t.Fatalf("run %d %s: index.json differs from MarshalIndent\n got %s\nwant %s", run, step, got, want)
			}
		}
		for step := 0; step < 40; step++ {
			seed := rng.Int63n(12) - 2
			switch op := rng.Intn(10); {
			case op < 6:
				snap := testSnapshot(seed)
				snap.SavedAt = time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("x", 3600*(rng.Intn(5)-2))).
					Add(time.Duration(rng.Int63n(1e15)))
				snap.Artifacts[fmt.Sprintf("k<%d>&\"é\"", rng.Intn(3))] = []byte(fmt.Sprint(rng.Intn(4)))
				if rng.Intn(2) == 0 {
					snap.ID = fmt.Sprintf("%064x", rng.Int63())
				}
				if err := d.Put(ctx, seed, snap); err != nil {
					t.Fatal(err)
				}
			case op < 9:
				if err := d.Delete(ctx, seed); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := d.GC(ctx, GCPolicy{MaxSnapshots: 1 + rng.Intn(6)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, indexFile)); err == nil {
				check(fmt.Sprintf("step %d", step))
			}
		}
		// Reopen: entries re-encoded from the decoded index write the same
		// bytes on the next save.
		if d, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		if err := d.Put(ctx, 99, testSnapshot(99)); err != nil {
			t.Fatal(err)
		}
		check("after reopen")
	}
}

// TestGetDoesNotWaitOnIndexWrite: a Get needs d.mu only for its lookup, so
// it completes while an index writer holds the writer lock.
func TestGetDoesNotWaitOnIndexWrite(t *testing.T) {
	ctx := context.Background()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(ctx, 1, testSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := d.Get(ctx, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get blocked behind the index writer lock")
	}
}
