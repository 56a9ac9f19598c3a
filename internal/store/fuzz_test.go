package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzBlobs are the objects every FuzzDiskOpen store holds, so an index
// that references them intact can load a complete snapshot.
var fuzzBlobs = []string{`{"seed":1}`, "E01 funnel\n"}

// FuzzDiskOpen feeds arbitrary bytes to the store as its index.json. The
// decoder sits on every warm restart, so whatever the file holds, Open
// succeeds, listing works, and Get on every listed seed returns a snapshot,
// ErrNotFound, or an error matching ErrCorrupt — never a panic. The seed
// corpus is in testdata/fuzz/FuzzDiskOpen.
func FuzzDiskOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, index []byte) {
		dir := t.TempDir()
		seedStore, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range fuzzBlobs {
			if _, err := seedStore.writeBlob([]byte(b)); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, indexFile), index, 0o644); err != nil {
			t.Fatal(err)
		}

		d, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		ctx := context.Background()
		seeds, err := d.List(ctx)
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if _, err := d.ListIDs(ctx); err != nil {
			t.Fatalf("ListIDs: %v", err)
		}
		for _, seed := range seeds {
			snap, err := d.Get(ctx, seed)
			switch {
			case err == nil:
				if snap == nil || snap.Seed != seed {
					t.Fatalf("Get(%d) = %+v", seed, snap)
				}
			case errors.Is(err, ErrNotFound), errors.Is(err, ErrCorrupt):
			default:
				t.Fatalf("Get(%d): %v, want a snapshot, ErrNotFound or ErrCorrupt", seed, err)
			}
		}
	})
}
