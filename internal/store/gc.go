package store

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
)

// This file is the store's lifecycle subsystem: a retention/GC sweep that
// bounds how much a long-lived deployment accumulates, and an integrity
// scrubber that re-verifies every blob at rest. Without them the Disk store
// grows by one snapshot per seed forever, a failed Delete or interrupted Put
// can strand blobs and .tmp-* files indefinitely, and bit rot is only
// discovered when a request happens to read the damaged blob.

// GCPolicy bounds the Disk store's retention. The zero value disables both
// bounds; the orphan/temp-file sweep always runs as part of GC.
type GCPolicy struct {
	// MaxSnapshots caps how many seed snapshots are retained; beyond it the
	// oldest (by SavedAt) are evicted first. 0 = unbounded.
	MaxSnapshots int
	// MaxAge evicts snapshots whose SavedAt is older than now-MaxAge.
	// 0 = unbounded.
	MaxAge time.Duration
}

// Enabled reports whether the policy bounds anything.
func (p GCPolicy) Enabled() bool { return p.MaxSnapshots > 0 || p.MaxAge > 0 }

// GCResult is the accounting of one GC sweep.
type GCResult struct {
	Evicted     int `json:"evicted"`      // snapshots removed by the age/count bounds
	Remaining   int `json:"remaining"`    // snapshots left after the sweep
	OrphanBlobs int `json:"orphan_blobs"` // unreferenced object files removed
	TmpFiles    int `json:"tmp_files"`    // stray .tmp-* files removed
}

// ScrubResult is the accounting of one integrity scrub.
type ScrubResult struct {
	Snapshots int `json:"snapshots"` // entries examined
	Blobs     int `json:"blobs"`     // blob reads attempted (size + checksum verified)
	Damaged   int `json:"damaged"`   // snapshots that failed verification
	Removed   int `json:"removed"`   // damaged snapshots deleted from the index
}

// Lifecycler is the optional maintenance surface of a Store backend. The
// serving layer feature-detects it with a type assertion: backends without
// a durable footprint (Nop, Mem) have nothing to maintain and simply don't
// implement it.
type Lifecycler interface {
	// GC applies the retention policy (oldest-first eviction) and sweeps
	// orphaned blobs and stray temp files.
	GC(ctx context.Context, policy GCPolicy) (GCResult, error)
	// Scrub re-verifies every stored blob and deletes snapshots that fail.
	Scrub(ctx context.Context) (ScrubResult, error)
}

// GC evicts snapshots beyond the policy's age and count bounds —
// oldest-first by SavedAt — then sweeps the directory for blobs no entry
// references and for .tmp-* files left by interrupted writes. It runs under
// the obs span "store.gc" and holds the gate exclusively, so concurrent
// Get/Put/Delete calls wait rather than race the sweep.
func (d *Disk) GC(ctx context.Context, policy GCPolicy) (GCResult, error) {
	_, span := obs.Start(ctx, "store.gc",
		obs.Int("max_snapshots", int64(policy.MaxSnapshots)),
		obs.Int("max_age_seconds", int64(policy.MaxAge/time.Second)))
	defer span.End()

	d.gate.Lock()
	defer d.gate.Unlock()

	var res GCResult
	d.mu.Lock()
	victims, kept := d.victimsLocked(policy, time.Now().UTC())
	if len(victims) > 0 {
		for _, e := range victims {
			delete(d.entries, e.Seed)
		}
		if err := d.writeIndex(d.sortedEntriesLocked()); err != nil {
			for _, e := range victims { // keep index and memory consistent
				d.entries[e.Seed] = e
			}
			d.mu.Unlock()
			return res, err
		}
	}
	res.Evicted = len(victims)
	res.Remaining = kept
	live := d.liveBlobsLocked()
	d.mu.Unlock()

	// Evicted blobs need no targeted removal: the full sweep below collects
	// everything the surviving entries don't reference — including blobs a
	// failed Delete left behind and half-written objects from crashed Puts.
	objects := filepath.Join(d.dir, objectsDir)
	des, err := os.ReadDir(objects)
	if err != nil {
		return res, err
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			if os.Remove(filepath.Join(objects, name)) == nil {
				res.TmpFiles++
			}
		case !live[name]:
			if os.Remove(filepath.Join(objects, name)) == nil {
				res.OrphanBlobs++
			}
		}
	}
	// The store root holds index.json temp files from interrupted index
	// writes; nothing else with the .tmp- prefix is legitimate there.
	rootEntries, err := os.ReadDir(d.dir)
	if err != nil {
		return res, err
	}
	for _, de := range rootEntries {
		if !de.IsDir() && strings.HasPrefix(de.Name(), ".tmp-") {
			if os.Remove(filepath.Join(d.dir, de.Name())) == nil {
				res.TmpFiles++
			}
		}
	}
	span.SetAttr(obs.Int("evicted", int64(res.Evicted)))
	span.SetAttr(obs.Int("orphan_blobs", int64(res.OrphanBlobs)))
	return res, nil
}

// victimsLocked selects the entries the policy evicts: everything past
// MaxAge, then the oldest beyond MaxSnapshots. Returns the victims and the
// number of entries that survive. Caller holds d.mu.
func (d *Disk) victimsLocked(policy GCPolicy, now time.Time) ([]*diskEntry, int) {
	byAge := make([]*diskEntry, 0, len(d.entries))
	for _, e := range d.entries {
		byAge = append(byAge, e)
	}
	sort.Slice(byAge, func(i, j int) bool {
		if !byAge[i].SavedAt.Equal(byAge[j].SavedAt) {
			return byAge[i].SavedAt.Before(byAge[j].SavedAt)
		}
		return byAge[i].Seed < byAge[j].Seed // deterministic tie-break
	})
	var victims []*diskEntry
	if policy.MaxAge > 0 {
		cutoff := now.Add(-policy.MaxAge)
		for len(byAge) > 0 && byAge[0].SavedAt.Before(cutoff) {
			victims = append(victims, byAge[0])
			byAge = byAge[1:]
		}
	}
	if policy.MaxSnapshots > 0 {
		for len(byAge) > policy.MaxSnapshots {
			victims = append(victims, byAge[0])
			byAge = byAge[1:]
		}
	}
	return victims, len(byAge)
}

// Scrub re-reads and re-verifies every blob of every snapshot — size and
// checksum — and deletes entries that fail, so damage is found and cleared
// at rest instead of on some future request. It runs under the obs span
// "store.scrub". Verification happens outside the exclusive gate (reads
// take the shared side via Delete), so traffic keeps flowing during a scrub.
func (d *Disk) Scrub(ctx context.Context) (ScrubResult, error) {
	_, span := obs.Start(ctx, "store.scrub")
	defer span.End()

	d.mu.Lock()
	entries := make([]*diskEntry, 0, len(d.entries))
	for _, e := range d.entries {
		entries = append(entries, e)
	}
	d.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seed < entries[j].Seed })

	var res ScrubResult
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.Snapshots++
		refs := make([]blobRef, 0, len(e.Artifacts)+1)
		refs = append(refs, e.Summary)
		for _, ref := range e.Artifacts {
			refs = append(refs, ref)
		}
		damaged := false
		for _, ref := range refs {
			res.Blobs++
			if _, err := d.readBlob(ref); err != nil {
				damaged = true
				break
			}
		}
		if !damaged {
			continue
		}
		res.Damaged++
		// Deleting the damaged entry turns the next request into a clean
		// miss → cold run → re-persist, instead of a corrupt-read every time.
		if err := d.Delete(ctx, e.Seed); err == nil {
			res.Removed++
		}
	}
	span.SetAttr(obs.Int("snapshots", int64(res.Snapshots)))
	span.SetAttr(obs.Int("damaged", int64(res.Damaged)))
	return res, nil
}
