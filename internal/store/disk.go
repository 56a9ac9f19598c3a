package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/study"
)

// Disk is the durable snapshot backend. On-disk layout:
//
//	<dir>/index.json            seed → entry (blob references + checksums)
//	<dir>/objects/<sha256>      content-addressed artifact/summary blobs
//
// Blobs are written once and addressed by their SHA-256, so identical
// artifacts across seeds share storage and a rewrite of an unchanged
// snapshot costs only the index. Every write lands via temp-file + rename,
// so a crash mid-save leaves the previous state intact. Every read verifies
// size and checksum; damage surfaces as a CorruptError (never a panic and
// never a partial snapshot), which the serving layer treats as a cache miss.
type Disk struct {
	dir string

	// gate serializes the GC's whole-directory orphan sweep against every
	// other operation: Get/Put/Delete hold it shared, GC holds it exclusive.
	// Without it a sweep could collect a blob written by an in-flight Put
	// whose index row has not landed yet, or yank a blob out from under a
	// reader mid-Get.
	gate sync.RWMutex

	// wmu serializes index writers (Put, Delete) so index.json is written
	// outside mu: a Get needs mu only for its lookup and never waits on an
	// index write's fsyncs. Taken before mu; GC holds gate exclusively
	// instead.
	wmu sync.Mutex

	mu       sync.Mutex
	entries  map[int64]*diskEntry
	skipped  int64 // index entries dropped as invalid at Open
	migrated int64 // entries carried over from an older index format
	stale    int64 // Gets refused because the entry predates SnapshotVersion
}

const (
	indexFile  = "index.json"
	objectsDir = "objects"
	// indexFormat is the shape of index.json itself. Format 1 (PR 4) lacked
	// per-entry snapshot versions; Open migrates it instead of dropping it.
	indexFormat = 2
)

// SnapshotVersion is the schema version stamped into every index entry at
// Put. It derives from the summary struct's declared version, so a change to
// study.Summary invalidates stored snapshots: a version-mismatched entry is
// served as a miss and the next pipeline run supersedes it.
const SnapshotVersion = study.SummaryVersion

// blobRef locates one content-addressed blob and pins its expected identity.
type blobRef struct {
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// diskEntry is one seed's row in the index. Version is the SnapshotVersion
// the entry was written under; rows from a migrated format-1 index decode it
// as 0 and are therefore served as misses until re-persisted.
type diskEntry struct {
	Seed      int64              `json:"seed"`
	Version   int                `json:"snapshot_version"`
	SavedAt   time.Time          `json:"saved_at"`
	Summary   blobRef            `json:"summary"`
	Artifacts map[string]blobRef `json:"artifacts"`
	// ID carries Snapshot.ID for string-identified namespaces (ingested
	// histories). Optional, so format-2 indexes without it stay valid.
	ID string `json:"id,omitempty"`

	// enc is the entry as it appears in index.json (see encodeIndex). An
	// entry never changes once built, so it is encoded once.
	enc []byte
}

// diskIndex is the serialized index file.
type diskIndex struct {
	Version int          `json:"version"`
	Entries []*diskEntry `json:"entries"`
}

// Open loads (or creates) a snapshot store rooted at dir. Loading is
// corruption-tolerant by design: an unreadable or undecodable index starts
// the store empty, and a structurally invalid entry is skipped and counted —
// Open only fails when the directory itself cannot be created.
func Open(dir string) (*Disk, error) {
	if err := os.MkdirAll(filepath.Join(dir, objectsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	d := &Disk{dir: dir, entries: map[int64]*diskEntry{}}
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return d, nil // fresh store
		}
		d.skipped++
		return d, nil
	}
	var idx diskIndex
	if err := json.Unmarshal(data, &idx); err != nil {
		d.skipped++
		return d, nil
	}
	fromV1 := false
	switch idx.Version {
	case indexFormat:
	case 1:
		// Format 1 rows share this format's shape minus snapshot_version, so
		// they decode with Version 0: structurally valid, loadable, but
		// version-stale — every Get misses until a fresh run re-persists the
		// seed. Migrating beats dropping the index wholesale: List/GC still
		// see the old entries, and their blobs are swept once superseded.
		fromV1 = true
	default:
		d.skipped++
		return d, nil
	}
	for _, e := range idx.Entries {
		if !validEntry(e) || e.encode() != nil {
			d.skipped++
			continue
		}
		if fromV1 {
			d.migrated++
		}
		d.entries[e.Seed] = e
	}
	return d, nil
}

// validEntry rejects rows the loader must not trust: missing blob
// references, malformed checksums, nil maps.
func validEntry(e *diskEntry) bool {
	if e == nil || e.Artifacts == nil || !validRef(e.Summary) {
		return false
	}
	for _, ref := range e.Artifacts {
		if !validRef(ref) {
			return false
		}
	}
	return true
}

func validRef(r blobRef) bool {
	if len(r.SHA256) != sha256.Size*2 || r.Size < 0 {
		return false
	}
	_, err := hex.DecodeString(r.SHA256)
	return err == nil
}

// CorruptAtOpen reports how many index entries were dropped as invalid when
// the store was opened (plus one if the index file itself was undecodable).
func (d *Disk) CorruptAtOpen() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.skipped
}

// Migrated reports how many entries were carried over from an older index
// format at Open. Migrated entries list and GC normally but serve as misses
// until a fresh run re-persists them under the current SnapshotVersion.
func (d *Disk) Migrated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.migrated
}

// Stale reports how many Gets were refused because the stored snapshot was
// written under a different SnapshotVersion.
func (d *Disk) Stale() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stale
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// Get loads and verifies one seed's snapshot under the obs span
// "store.load". Any verification failure — missing blob, size drift,
// checksum mismatch, undecodable summary — returns a CorruptError; the
// caller degrades to a cold pipeline run.
func (d *Disk) Get(ctx context.Context, seed int64) (*Snapshot, error) {
	_, span := obs.Start(ctx, "store.load", obs.Int("seed", seed))
	defer span.End()

	// Shared gate for the whole read: a concurrent GC sweep cannot collect
	// blobs out from under us between the index lookup and the blob reads.
	d.gate.RLock()
	defer d.gate.RUnlock()

	d.mu.Lock()
	e, ok := d.entries[seed]
	if ok && e.Version != SnapshotVersion {
		// Version skew is a miss, not corruption: the snapshot was valid when
		// written, it just predates the current summary shape. The caller
		// re-runs the pipeline and its write-behind supersedes this entry.
		d.stale++
		d.mu.Unlock()
		return nil, ErrNotFound
	}
	d.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}

	sumBytes, err := d.readBlob(e.Summary)
	if err != nil {
		return nil, &CorruptError{Seed: seed, Part: "summary", Err: err}
	}
	var sum study.Summary
	if err := json.Unmarshal(sumBytes, &sum); err != nil {
		return nil, &CorruptError{Seed: seed, Part: "summary", Err: err}
	}
	arts := make(map[string][]byte, len(e.Artifacts))
	for name, ref := range e.Artifacts {
		b, err := d.readBlob(ref)
		if err != nil {
			return nil, &CorruptError{Seed: seed, Part: name, Err: err}
		}
		arts[name] = b
	}
	span.SetAttr(obs.Int("artifacts", int64(len(arts))))
	return &Snapshot{Seed: seed, SavedAt: e.SavedAt, Summary: sum, Artifacts: arts, ID: e.ID}, nil
}

// readBlob reads one content-addressed blob and verifies size + checksum.
func (d *Disk) readBlob(ref blobRef) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(d.dir, objectsDir, ref.SHA256))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != ref.Size {
		return nil, fmt.Errorf("blob %s: size %d, want %d", ref.SHA256, len(b), ref.Size)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != ref.SHA256 {
		return nil, fmt.Errorf("blob %s: checksum mismatch", ref.SHA256)
	}
	return b, nil
}

// Put persists one snapshot under the obs span "store.save": every blob is
// written content-addressed (temp + rename, dedup on hash), then the index
// is atomically replaced. A Put for an existing seed supersedes its entry.
func (d *Disk) Put(ctx context.Context, seed int64, snap *Snapshot) error {
	_, span := obs.Start(ctx, "store.save",
		obs.Int("seed", seed), obs.Int("artifacts", int64(len(snap.Artifacts))))
	defer span.End()

	d.gate.RLock()
	defer d.gate.RUnlock()

	sumBytes, err := json.Marshal(snap.Summary)
	if err != nil {
		return fmt.Errorf("store: marshal summary for seed %d: %w", seed, err)
	}
	sumRef, err := d.writeBlob(sumBytes)
	if err != nil {
		return fmt.Errorf("store: save seed %d: %w", seed, err)
	}
	refs := make(map[string]blobRef, len(snap.Artifacts))
	for name, b := range snap.Artifacts {
		ref, err := d.writeBlob(b)
		if err != nil {
			return fmt.Errorf("store: save seed %d artifact %s: %w", seed, name, err)
		}
		refs[name] = ref
	}
	savedAt := snap.SavedAt
	if savedAt.IsZero() {
		savedAt = time.Now().UTC()
	}

	e := &diskEntry{
		Seed: seed, Version: SnapshotVersion, SavedAt: savedAt,
		Summary: sumRef, Artifacts: refs, ID: snap.ID,
	}
	if err := e.encode(); err != nil {
		return fmt.Errorf("store: save seed %d: %w", seed, err)
	}

	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.mu.Lock()
	d.entries[seed] = e
	entries := d.sortedEntriesLocked()
	d.mu.Unlock()
	return d.writeIndex(entries)
}

// writeBlob stores b content-addressed and returns its reference. A blob
// already present is not rewritten — but only if its bytes actually verify:
// deduping on size alone would let a same-length corrupted blob survive
// every future Put, so a damaged entry could never heal and the documented
// degrade-and-replace contract would be a lie.
func (d *Disk) writeBlob(b []byte) (blobRef, error) {
	sum := sha256.Sum256(b)
	ref := blobRef{SHA256: hex.EncodeToString(sum[:]), Size: int64(len(b))}
	path := filepath.Join(d.dir, objectsDir, ref.SHA256)
	if existing, err := os.ReadFile(path); err == nil &&
		int64(len(existing)) == ref.Size && sha256.Sum256(existing) == sum {
		return ref, nil
	}
	if err := atomicWrite(filepath.Join(d.dir, objectsDir), path, b); err != nil {
		return blobRef{}, err
	}
	return ref, nil
}

// encode caches the entry's index.json encoding: json.MarshalIndent at
// the depth encodeIndex places it.
func (e *diskEntry) encode() error {
	enc, err := json.MarshalIndent(e, "    ", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal index entry %d: %w", e.Seed, err)
	}
	e.enc = enc
	return nil
}

// sortedEntriesLocked returns the entries in seed order, the order of
// index.json. Caller holds d.mu.
func (d *Disk) sortedEntriesLocked() []*diskEntry {
	out := make([]*diskEntry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

// encodeIndex assembles index.json from the entries' cached encodings
// without re-marshalling any of them. The bytes equal
// json.MarshalIndent(diskIndex{indexFormat, entries}, "", "  ") plus a
// trailing newline.
func encodeIndex(entries []*diskEntry) []byte {
	n := 64
	for _, e := range entries {
		n += len(e.enc) + 6
	}
	b := make([]byte, 0, n)
	b = append(b, "{\n  \"version\": "...)
	b = strconv.AppendInt(b, indexFormat, 10)
	b = append(b, ",\n  \"entries\": ["...)
	for i, e := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = append(b, e.enc...)
	}
	if len(entries) > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, "]\n}\n"...)
}

// writeIndex atomically replaces index.json with the given entries, which
// are in seed order. Callers serialize on wmu (or hold gate exclusively).
func (d *Disk) writeIndex(entries []*diskEntry) error {
	return atomicWrite(d.dir, filepath.Join(d.dir, indexFile), encodeIndex(entries))
}

// atomicWrite lands content at path via a temp file in dir plus rename, so
// readers never observe a partial file. The temp file is fsynced before the
// rename and the directory after it: rename alone only orders the namespace
// change, not the data writeback, so a crash right after the rename could
// otherwise surface a zero-length or partial blob behind a committed name.
func atomicWrite(dir, path string, content []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(content); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename inside it is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Delete removes a seed's entry and any blobs no other entry references.
// Deleting an absent seed is a no-op.
func (d *Disk) Delete(_ context.Context, seed int64) error {
	d.gate.RLock()
	defer d.gate.RUnlock()
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.mu.Lock()
	e, ok := d.entries[seed]
	if !ok {
		d.mu.Unlock()
		return nil
	}
	delete(d.entries, seed)
	entries := d.sortedEntriesLocked()
	d.mu.Unlock()
	if err := d.writeIndex(entries); err != nil {
		d.mu.Lock()
		d.entries[seed] = e // keep index and memory consistent
		d.mu.Unlock()
		return err
	}
	// Sweep the deleted entry's blobs unless still referenced elsewhere.
	d.mu.Lock()
	live := d.liveBlobsLocked()
	d.mu.Unlock()
	remove := func(ref blobRef) {
		if !live[ref.SHA256] {
			os.Remove(filepath.Join(d.dir, objectsDir, ref.SHA256))
		}
	}
	remove(e.Summary)
	for _, ref := range e.Artifacts {
		remove(ref)
	}
	return nil
}

// liveBlobsLocked returns the set of blob hashes referenced by any entry.
// Caller holds d.mu.
func (d *Disk) liveBlobsLocked() map[string]bool {
	live := make(map[string]bool, len(d.entries)*8)
	for _, e := range d.entries {
		live[e.Summary.SHA256] = true
		for _, ref := range e.Artifacts {
			live[ref.SHA256] = true
		}
	}
	return live
}

// ListIDs returns the stored string identities (entries with a non-empty
// id) in ascending order.
func (d *Disk) ListIDs(context.Context) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, e := range d.entries {
		if e.ID != "" {
			out = append(out, e.ID)
		}
	}
	sort.Strings(out)
	return out, nil
}

// List returns the stored seeds in ascending order.
func (d *Disk) List(context.Context) ([]int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int64, 0, len(d.entries))
	for seed := range d.entries {
		out = append(out, seed)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
