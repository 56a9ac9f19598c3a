// Package store is the persistence subsystem of schemaevod: completed study
// results — the machine-readable summary plus every rendered artifact — are
// captured as per-seed snapshots behind a small Store interface, so a
// restarted daemon can serve previously-seen seeds without re-running the
// ~1.5 s pipeline.
//
// Two backends ship with the package: Nop (the explicit "no persistence"
// choice — every lookup misses, writes are discarded) and Disk (an on-disk
// snapshot store with content-addressed, checksum-verified blobs, atomic
// writes, and corruption-tolerant loading). Mem is a map-backed third for
// tests. All backends are safe for concurrent use.
package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/schemaevo/schemaevo/internal/study"
)

// Snapshot is one seed's persisted study output: the summary digest plus
// every rendered artifact, keyed the way the serving layer keys its artifact
// memo (experiment keys, "export.csv" / "export.json" / "report.html", and
// "figures/<name>.svg").
type Snapshot struct {
	Seed      int64
	SavedAt   time.Time
	Summary   study.Summary
	Artifacts map[string][]byte

	// ID is an optional string identity for snapshots whose natural key is
	// not the int64 seed — ingested histories store their content address
	// (hex SHA-256) here, keyed by its 64-bit truncation. Restores verify it
	// and IDLister recovers the full identities after a restart.
	ID string
}

// Store persists study snapshots keyed by seed. Get returns ErrNotFound for
// absent seeds; a backend that detects damage returns an error matching
// ErrCorrupt so callers can degrade to a cold pipeline run instead of
// failing the request.
type Store interface {
	Get(ctx context.Context, seed int64) (*Snapshot, error)
	Put(ctx context.Context, seed int64, snap *Snapshot) error
	Delete(ctx context.Context, seed int64) error
	List(ctx context.Context) ([]int64, error)
}

// IDLister is the optional Store extension for namespaces whose snapshots
// carry string identities (Snapshot.ID): ListIDs returns every stored
// non-empty identity in ascending order. The Disk and Mem backends
// implement it.
type IDLister interface {
	ListIDs(ctx context.Context) ([]string, error)
}

// ErrNotFound reports a seed with no stored snapshot.
var ErrNotFound = errors.New("store: snapshot not found")

// ErrCorrupt is the sentinel matched (via errors.Is) by every verification
// failure: checksum mismatch, truncated blob, undecodable summary.
var ErrCorrupt = errors.New("store: snapshot corrupt")

// CorruptError carries the detail of one failed snapshot verification. It
// matches ErrCorrupt under errors.Is.
type CorruptError struct {
	Seed int64
	Part string // which blob failed: "summary", an artifact key, "index"
	Err  error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: snapshot for seed %d corrupt at %s: %v", e.Seed, e.Part, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrCorrupt) match any CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// Nop is the no-persistence backend: Get always misses, Put and Delete are
// discarded. It is the zero-configuration default of the serving layer.
type Nop struct{}

func (Nop) Get(context.Context, int64) (*Snapshot, error) { return nil, ErrNotFound }
func (Nop) Put(context.Context, int64, *Snapshot) error   { return nil }
func (Nop) Delete(context.Context, int64) error           { return nil }
func (Nop) List(context.Context) ([]int64, error)         { return nil, nil }

// Mem is a map-backed in-memory store — durable for the life of the process
// only. It is the test double of choice for the serving layer's read-through
// path.
type Mem struct {
	mu    sync.Mutex
	snaps map[int64]*Snapshot
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{snaps: map[int64]*Snapshot{}} }

func (m *Mem) Get(_ context.Context, seed int64) (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap, ok := m.snaps[seed]
	if !ok {
		return nil, ErrNotFound
	}
	return copySnapshot(snap), nil
}

func (m *Mem) Put(_ context.Context, seed int64, snap *Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snaps[seed] = copySnapshot(snap)
	return nil
}

func (m *Mem) Delete(_ context.Context, seed int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.snaps, seed)
	return nil
}

// ListIDs returns the stored string identities (snapshots with a non-empty
// Snapshot.ID) in ascending order.
func (m *Mem) ListIDs(_ context.Context) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, snap := range m.snaps {
		if snap.ID != "" {
			out = append(out, snap.ID)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (m *Mem) List(_ context.Context) ([]int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, 0, len(m.snaps))
	for seed := range m.snaps {
		out = append(out, seed)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// copySnapshot detaches the artifact map so callers cannot alias the stored
// state. Artifact bytes are shared — both sides treat them as immutable.
func copySnapshot(s *Snapshot) *Snapshot {
	cp := *s
	cp.Artifacts = make(map[string][]byte, len(s.Artifacts))
	for k, v := range s.Artifacts {
		cp.Artifacts[k] = v
	}
	return &cp
}
