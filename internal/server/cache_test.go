package server

import (
	"fmt"
	"testing"

	"symcluster/internal/graph"
	"symcluster/internal/matrix"
)

// pathGraph builds an undirected n-node path, a convenient way to get
// symmetric graphs of controllable byte size.
func pathGraph(t *testing.T, n int) *graph.Undirected {
	t.Helper()
	b := matrix.NewBuilder(n, n)
	for i := 0; i+1 < n; i++ {
		b.Add(i, i+1, 1)
		b.Add(i+1, i, 1)
	}
	u, err := graph.NewUndirected(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func key(i int) CacheKey {
	return CacheKey{Graph: uint64(i), Method: "dd", Alpha: 0.5, Beta: 0.5}
}

func TestCacheEvictsLRUUnderByteBudget(t *testing.T) {
	u := pathGraph(t, 16)
	per := GraphBytes(u)
	if per <= 0 {
		t.Fatalf("GraphBytes = %d", per)
	}
	c := NewCache(2*per + per/2) // room for exactly two graphs

	c.Put(key(1), u)
	c.Put(key(2), u)
	if c.Len() != 2 || c.Bytes() != 2*per {
		t.Fatalf("len=%d bytes=%d", c.Len(), c.Bytes())
	}

	// Touch 1 so 2 becomes least recently used, then overflow.
	if _, _, ok := c.Get(key(1)); !ok {
		t.Fatal("key 1 missing")
	}
	c.Put(key(3), u)
	if c.Len() != 2 {
		t.Fatalf("len = %d after eviction", c.Len())
	}
	if _, _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	for _, k := range []int{1, 3} {
		if _, _, ok := c.Get(key(k)); !ok {
			t.Fatalf("entry %d evicted wrongly", k)
		}
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d", evictions)
	}
}

func TestCacheSkipsOversizedEntries(t *testing.T) {
	small, big := pathGraph(t, 4), pathGraph(t, 512)
	c := NewCache(GraphBytes(small) * 2)
	c.Put(key(1), small)
	c.Put(key(2), big) // larger than the whole budget: not stored
	if _, _, ok := c.Get(key(2)); ok {
		t.Fatal("oversized graph was cached")
	}
	if _, _, ok := c.Get(key(1)); !ok {
		t.Fatal("small graph evicted by rejected insert")
	}
}

func TestCacheRefreshSameKey(t *testing.T) {
	a, b := pathGraph(t, 8), pathGraph(t, 10)
	c := NewCache(10 * GraphBytes(b))
	c.Put(key(1), a)
	c.Put(key(1), b)
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Bytes() != GraphBytes(b) {
		t.Fatalf("bytes = %d, want %d", c.Bytes(), GraphBytes(b))
	}
	got, _, ok := c.Get(key(1))
	if !ok || got.N() != 10 {
		t.Fatalf("refreshed entry = %v, %v", got, ok)
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	u := pathGraph(t, 4)
	c := NewCache(1 << 20)
	c.Get(key(1))
	c.Put(key(1), u)
	c.Get(key(1))
	c.Get(key(2))
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestCacheKeyDistinguishesParameters(t *testing.T) {
	u := pathGraph(t, 4)
	c := NewCache(1 << 20)
	base := CacheKey{Graph: 7, Method: "dd", Alpha: 0.5, Beta: 0.5, Threshold: 0}
	c.Put(base, u)
	variants := []CacheKey{
		{Graph: 8, Method: "dd", Alpha: 0.5, Beta: 0.5},
		{Graph: 7, Method: "bib", Alpha: 0.5, Beta: 0.5},
		{Graph: 7, Method: "dd", Alpha: 0.3, Beta: 0.5},
		{Graph: 7, Method: "dd", Alpha: 0.5, Beta: 0.3},
		{Graph: 7, Method: "dd", Alpha: 0.5, Beta: 0.5, Threshold: 0.01},
	}
	for i, k := range variants {
		if _, _, ok := c.Get(k); ok {
			t.Errorf("variant %d (%+v) hit the base entry", i, k)
		}
	}
	if _, _, ok := c.Get(base); !ok {
		t.Fatal("base key missing")
	}
}

func TestGraphBytesGrowsWithGraph(t *testing.T) {
	sizes := []int{4, 64, 1024}
	var prev int64
	for _, n := range sizes {
		b := GraphBytes(pathGraph(t, n))
		if b <= prev {
			t.Fatalf("GraphBytes(%d) = %d, not above %d", n, b, prev)
		}
		prev = b
	}
	// Sanity: the estimate tracks the CSR arrays, so a 1024-node path
	// (2046 entries) should be within a small factor of 2046*(8+4)+1025*8.
	if prev < 30000 || prev > 40000 {
		t.Fatalf("GraphBytes(1024-path) = %d, outside plausible range", prev)
	}
	_ = fmt.Sprint(prev)
}
