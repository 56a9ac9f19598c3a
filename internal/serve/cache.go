package serve

import (
	"container/list"
	"strings"
	"sync"
)

// resourceCache is a bounded LRU of rendered artifact sets keyed by int64 —
// the seed for studies, the truncated content address for ingested
// histories. An entry holds bytes only: the set a run rendered or a snapshot
// restored, never a live pipeline result, so a full cache costs CacheSize
// rendered sets. An installed set is never mutated — a later run replaces it
// whole — so a reader may keep using one after the lock is released. One
// mutex guards the LRU; its critical sections are pointer moves and map
// lookups, never pipeline work or rendering.
type resourceCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List              // front = most recently used
	entries map[int64]*list.Element // key → element whose Value is *cacheEntry
	metrics *Metrics
}

type cacheEntry struct {
	key       int64
	artifacts map[string][]byte // rendered artifacts, keyed like store snapshots
}

// newResourceCache returns an LRU holding at most capacity entries.
// Capacity is clamped to at least 1.
func newResourceCache(capacity int, m *Metrics) *resourceCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resourceCache{
		cap:     capacity,
		order:   list.New(),
		entries: map[int64]*list.Element{},
		metrics: m,
	}
}

// GetArtifact returns the bytes of one artifact of key's set, refreshing the
// entry's recency.
func (c *resourceCache) GetArtifact(key int64, artifact string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	b, ok := el.Value.(*cacheEntry).artifacts[artifact]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return b, true
}

// Artifacts returns key's whole set without refreshing its recency. The map
// is shared and must not be modified.
func (c *resourceCache) Artifacts(key int64) (map[string][]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).artifacts, true
}

// Install caches arts as key's set — replacing any set already there — and
// makes it the most recently used, evicting the least recently used entry
// beyond capacity. The cache keeps arts as given; the caller must not modify
// it afterwards.
func (c *resourceCache) Install(key int64, arts map[string][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).artifacts = arts
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&cacheEntry{key: key, artifacts: arts})
	c.entries[key] = el
	// The entry gauge is kept by increments, not recomputed from this
	// cache's length: the seed and history caches share one Metrics, and the
	// gauge reports their combined population.
	if c.metrics != nil {
		c.metrics.cacheEntries.Add(1)
	}
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		if c.metrics != nil {
			c.metrics.cacheEvicts.Add(1)
			c.metrics.cacheEntries.Add(-1)
		}
	}
}

// Has reports whether key has a set cached. It does not refresh recency.
func (c *resourceCache) Has(key int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// HoldsPrefix reports whether key's set holds any artifact whose name starts
// with prefix.
func (c *resourceCache) HoldsPrefix(key int64, prefix string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	for k := range el.Value.(*cacheEntry).artifacts {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

// Len reports the current number of cached entries.
func (c *resourceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Seeds returns the cached keys from most to least recently used.
func (c *resourceCache) Seeds() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key)
	}
	return out
}
