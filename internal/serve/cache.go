package serve

import (
	"container/list"
	"strings"
	"sync"
)

// resourceCache is a bounded LRU keyed by int64 — the seed for studies, the
// truncated content address for ingested histories. Each entry carries up to
// two layers: the completed live value V (immutable once built — every
// reader only reads, so one cached value can back any number of concurrent
// renders) and the artifact memo — rendered bytes per artifact key, so a
// cache hit never re-renders report.html or profile.json. Entries restored
// from the persistent store hold only the memo (no live value); the value
// layer is filled in if a later request needs a live pipeline result. The
// cache is guarded by one mutex — critical sections are pointer moves and
// map lookups, never pipeline work or rendering.
type resourceCache[V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List              // front = most recently used
	entries map[int64]*list.Element // key → element whose Value is *cacheEntry[V]
	metrics *Metrics
}

type cacheEntry[V any] struct {
	key       int64
	val       V
	hasVal    bool              // false for snapshot-only entries
	artifacts map[string][]byte // rendered artifact memo, keyed like store snapshots
	fromStore bool              // artifacts came from a full persisted snapshot
}

// newResourceCache returns an LRU holding at most capacity entries.
// Capacity is clamped to at least 1.
func newResourceCache[V any](capacity int, m *Metrics) *resourceCache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &resourceCache[V]{
		cap:     capacity,
		order:   list.New(),
		entries: map[int64]*list.Element{},
		metrics: m,
	}
}

// Get returns the cached live value for key, refreshing its recency.
// Snapshot-only entries (no live value) report a miss — callers needing the
// live value must run the pipeline.
func (c *resourceCache[V]) Get(key int64) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero V
	el, ok := c.entries[key]
	if !ok || !el.Value.(*cacheEntry[V]).hasVal {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// Put inserts (or refreshes) a live value, evicting the least recently used
// entry beyond capacity. An existing snapshot-only entry is upgraded in
// place — its artifact memo survives.
func (c *resourceCache[V]) Put(key int64, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry[V])
		e.val = v
		e.hasVal = true
		c.order.MoveToFront(el)
		return
	}
	c.insertLocked(&cacheEntry[V]{key: key, val: v, hasVal: true})
}

// GetArtifact returns the memoized bytes for (key, artifact), refreshing the
// entry's recency.
func (c *resourceCache[V]) GetArtifact(key int64, artifact string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	b, ok := el.Value.(*cacheEntry[V]).artifacts[artifact]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return b, true
}

// PutArtifact memoizes one rendered artifact on an existing entry. A key
// evicted since its render is dropped silently — the memo never resurrects
// entries past the LRU bound.
func (c *resourceCache[V]) PutArtifact(key int64, artifact string, b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry[V])
	if e.artifacts == nil {
		e.artifacts = map[string][]byte{}
	}
	e.artifacts[artifact] = b
}

// MergeArtifacts memoizes a batch of rendered artifacts on an existing
// entry without overwriting keys already present.
func (c *resourceCache[V]) MergeArtifacts(key int64, arts map[string][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry[V]).merge(arts)
	}
}

func (e *cacheEntry[V]) merge(arts map[string][]byte) {
	if e.artifacts == nil {
		e.artifacts = make(map[string][]byte, len(arts))
	}
	for k, v := range arts {
		if _, dup := e.artifacts[k]; !dup {
			e.artifacts[k] = v
		}
	}
}

// InstallSnapshot inserts a snapshot-only entry for a key restored from
// the persistent store: all artifacts, no live value. It counts toward the
// LRU bound like any run result. If the key is already cached the
// snapshot's artifacts merge into it.
func (c *resourceCache[V]) InstallSnapshot(key int64, arts map[string][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
	} else {
		el = c.insertLocked(&cacheEntry[V]{key: key})
	}
	e := el.Value.(*cacheEntry[V])
	e.merge(arts)
	e.fromStore = true
}

// insertLocked pushes a fresh entry and enforces the capacity bound, which
// the fresh (front) entry always survives. Caller holds c.mu.
func (c *resourceCache[V]) insertLocked(e *cacheEntry[V]) *list.Element {
	el := c.order.PushFront(e)
	c.entries[e.key] = el
	// The entry gauge is kept by increments, not recomputed from this
	// cache's length: the seed and history caches share one Metrics, and the
	// gauge reports their combined population.
	if c.metrics != nil {
		c.metrics.cacheEntries.Add(1)
	}
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry[V]).key)
		if c.metrics != nil {
			c.metrics.cacheEvicts.Add(1)
			c.metrics.cacheEntries.Add(-1)
		}
	}
	return el
}

// Has reports whether key is present at all — as a live value, a snapshot
// restore, or both. It does not refresh recency.
func (c *resourceCache[V]) Has(key int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// MissingStoredFigure reports whether key's entry is a store-restored
// snapshot that carries figures but not the named one — the case where the
// figure name is simply unknown and a pipeline run would not help.
func (c *resourceCache[V]) MissingStoredFigure(key int64, artifact string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	e := el.Value.(*cacheEntry[V])
	if !e.fromStore || e.hasVal {
		return false
	}
	if _, ok := e.artifacts[artifact]; ok {
		return false
	}
	for k := range e.artifacts {
		if strings.HasPrefix(k, "figures/") {
			return true
		}
	}
	return false
}

// Len reports the current number of cached entries.
func (c *resourceCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Seeds returns the cached keys from most to least recently used.
func (c *resourceCache[V]) Seeds() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry[V]).key)
	}
	return out
}
