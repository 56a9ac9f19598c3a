package serve

import (
	"sync"
	"testing"

	"github.com/schemaevo/schemaevo/internal/study"
)

// stub studies only need distinct identities; no pipeline data is touched
// by the cache itself.
func stubStudy(seed int64) *study.Study { return &study.Study{Seed: seed} }

func TestCacheLRUEviction(t *testing.T) {
	m := NewMetrics()
	c := newResourceCache[*study.Study](2, m)
	c.Put(1, stubStudy(1))
	c.Put(2, stubStudy(2))
	if _, ok := c.Get(1); !ok { // refresh 1 → 2 becomes LRU
		t.Fatal("seed 1 missing")
	}
	c.Put(3, stubStudy(3))
	if _, ok := c.Get(2); ok {
		t.Fatal("seed 2 should have been evicted (LRU)")
	}
	for _, seed := range []int64{1, 3} {
		if st, ok := c.Get(seed); !ok || st.Seed != seed {
			t.Fatalf("seed %d missing or wrong: %+v", seed, st)
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
	c := newResourceCache[*study.Study](4, nil)
	for _, s := range []int64{5, 6, 7} {
		c.Put(s, stubStudy(s))
	}
	c.Get(5) // most recent now
	seeds := c.Seeds()
	if len(seeds) != 3 || seeds[0] != 5 {
		t.Fatalf("seeds = %v, want [5 7 6]", seeds)
	}
}

func TestCachePutRefreshKeepsSize(t *testing.T) {
	c := newResourceCache[*study.Study](2, nil)
	c.Put(1, stubStudy(1))
	c.Put(1, stubStudy(1))
	if c.Len() != 1 {
		t.Fatalf("len = %d after duplicate put", c.Len())
	}
}

func TestCacheCapacityClamped(t *testing.T) {
	c := newResourceCache[*study.Study](0, nil)
	c.Put(1, stubStudy(1))
	c.Put(2, stubStudy(2))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want clamp to 1", c.Len())
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; the race
// detector is the assertion.
func TestCacheConcurrent(t *testing.T) {
	c := newResourceCache[*study.Study](4, NewMetrics())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seed := int64((g + i) % 8)
				if _, ok := c.Get(seed); !ok {
					c.Put(seed, stubStudy(seed))
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
