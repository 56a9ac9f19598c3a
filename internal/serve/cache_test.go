package serve

import (
	"fmt"
	"sync"
	"testing"
)

// stubSet is a one-artifact rendered set naming its seed; the cache itself
// never looks inside.
func stubSet(seed int64) map[string][]byte {
	return map[string][]byte{"funnel": []byte(fmt.Sprintf("funnel %d", seed))}
}

func TestCacheLRUEviction(t *testing.T) {
	m := NewMetrics()
	c := newResourceCache(2, m)
	c.Install(1, stubSet(1))
	c.Install(2, stubSet(2))
	if _, ok := c.GetArtifact(1, "funnel"); !ok { // refresh 1 → 2 becomes LRU
		t.Fatal("seed 1 missing")
	}
	c.Install(3, stubSet(3))
	if c.Has(2) {
		t.Fatal("seed 2 should have been evicted (LRU)")
	}
	for _, seed := range []int64{1, 3} {
		if b, ok := c.GetArtifact(seed, "funnel"); !ok || string(b) != fmt.Sprintf("funnel %d", seed) {
			t.Fatalf("seed %d missing or wrong: %q", seed, b)
		}
	}
	if got := m.Snapshot().CacheEvictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestCacheSeedsOrder(t *testing.T) {
	c := newResourceCache(4, nil)
	for _, s := range []int64{5, 6, 7} {
		c.Install(s, stubSet(s))
	}
	c.GetArtifact(5, "funnel") // most recent now
	seeds := c.Seeds()
	if len(seeds) != 3 || seeds[0] != 5 {
		t.Fatalf("seeds = %v, want [5 7 6]", seeds)
	}
}

// A second install of one key replaces its set in place: the size stays,
// and readers see the new set.
func TestCachePutRefreshKeepsSize(t *testing.T) {
	c := newResourceCache(2, nil)
	c.Install(1, stubSet(1))
	c.Install(1, map[string][]byte{"funnel": []byte("replaced")})
	if c.Len() != 1 {
		t.Fatalf("len = %d after duplicate install", c.Len())
	}
	if b, _ := c.GetArtifact(1, "funnel"); string(b) != "replaced" {
		t.Fatalf("funnel = %q, want the replacing set", b)
	}
}

func TestCacheCapacityClamped(t *testing.T) {
	c := newResourceCache(0, nil)
	c.Install(1, stubSet(1))
	c.Install(2, stubSet(2))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want clamp to 1", c.Len())
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; the race
// detector is the assertion.
func TestCacheConcurrent(t *testing.T) {
	c := newResourceCache(4, NewMetrics())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seed := int64((g + i) % 8)
				if _, ok := c.GetArtifact(seed, "funnel"); !ok {
					c.Install(seed, stubSet(seed))
				}
				c.Seeds()
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 4 {
		t.Fatalf("cache overflowed its bound: %d", c.Len())
	}
}
