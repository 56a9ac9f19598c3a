package serve

import (
	"context"
	"fmt"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
)

// This file wires the persistence subsystem (internal/store) into the
// serving layer as a read-through / write-behind cache tier under the LRU:
//
//   - read-through: a resource missing from the LRU is first looked up in
//     its store; a verified snapshot restores the full artifact memo without
//     a run (the warm-restart path — see resource.restore).
//   - write-behind: every completed run schedules an asynchronous snapshot
//     save, so the next daemon generation serves the resource from disk.
//
// A corrupt snapshot is counted, logged, and treated as a miss: the request
// degrades to a cold run whose write-behind replaces the damaged entry.

// schedulePersist queues the write-behind for a freshly completed run. The
// persisting mark is in-flight dedup only — at most one save per key runs at
// a time — and is cleared when the save finishes, win or lose. Clearing on
// success matters: a snapshot later damaged on disk or evicted by the
// retention GC must be re-persistable by the next run within the same
// daemon generation, or the degrade-and-replace contract above breaks.
func (r *resource[K, V]) schedulePersist(id K, v V) {
	if r.store == nil {
		return
	}
	key := r.Key(id)
	r.mu.Lock()
	if r.persisting[key] {
		r.mu.Unlock()
		return
	}
	r.persisting[key] = true
	r.mu.Unlock()

	r.srv.persistWG.Add(1)
	go func() {
		defer r.srv.persistWG.Done()
		err := r.persist(id, v)
		r.mu.Lock()
		delete(r.persisting, key)
		r.mu.Unlock()
		if err != nil {
			r.srv.opts.Logger.Error("snapshot save failed", r.Name, r.Format(id), "err", err)
			return
		}
		r.srv.metrics.storeSaves.Add(1)
	}()
}

// persist builds the run's snapshot and writes it. The snapshot's artifacts
// also warm the memo of the cache entry (if it is still resident), so a
// seed's renders are paid once. A panic in a renderer is contained here —
// persistence must never take the daemon down.
func (r *resource[K, V]) persist(id K, v V) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("render panicked: %v", p)
		}
	}()
	// Deliberately detached from any request context: the save belongs to
	// the daemon, not to the request that happened to trigger the run.
	ctx := obs.WithTracer(context.Background(), r.srv.tracer)
	ctx = obs.WithLogger(ctx, r.srv.opts.Logger)
	start := time.Now()
	snap, err := r.snapshot(ctx, v)
	if err != nil {
		return err
	}
	key := r.Key(id)
	r.cache.MergeArtifacts(key, snap.Artifacts)
	snap.Seed, snap.SavedAt = key, time.Now().UTC()
	if r.Addressed {
		snap.ID = r.Format(id)
	}
	if err := r.store.Put(ctx, key, snap); err != nil {
		return err
	}
	r.srv.opts.Logger.Info("snapshot saved to store", r.Name, r.Format(id),
		"artifacts", len(snap.Artifacts), "took", time.Since(start).Round(time.Millisecond))
	return nil
}

// SyncStore blocks until every scheduled write-behind snapshot save has
// finished. Prewarm calls it so prewarmed seeds are durable before traffic;
// the graceful-shutdown path calls it so a drained daemon leaves a complete
// store behind.
func (s *Server) SyncStore() { s.persistWG.Wait() }
