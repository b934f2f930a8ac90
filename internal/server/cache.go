package server

import (
	"container/list"
	"sync"

	"symcluster/internal/faultinject"
	"symcluster/internal/graph"
	"symcluster/internal/multilevel"
)

// CacheKey identifies one symmetrization product: the graph it was
// computed from (by structural fingerprint) plus every Symmetrize
// parameter that changes the output. Two requests with the same key
// would recompute the identical undirected graph, so the second can be
// served from cache.
type CacheKey struct {
	Graph     uint64
	Method    string
	Alpha     float64
	Beta      float64
	Threshold float64
}

// Cache is a mutex-guarded LRU of symmetrized graphs under a byte
// budget. Entries are charged their CSR storage cost, and the hierarchy
// a reused graph's memo keeps; past the budget, least-recently-used
// entries go. A graph larger than the whole budget is never stored.
type Cache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // front = most recent; values are *cacheEntry
	items  map[CacheKey]*list.Element

	hits, misses, evictions int64
}

// cacheEntry is a graph, the memo bound to it, and what each is charged.
type cacheEntry struct {
	key   CacheKey
	u     *graph.Undirected
	hier  *multilevel.Memo
	bytes int64
	held  int64
}

// NewCache returns a cache holding at most budget bytes of symmetrized
// graphs. A non-positive budget disables caching (every Get misses).
func NewCache(budget int64) *Cache {
	return &Cache{
		budget: budget,
		order:  list.New(),
		items:  make(map[CacheKey]*list.Element),
	}
}

// GraphBytes estimates the resident size of a symmetrized graph: the
// CSR arrays plus label headers. This is the quantity charged against
// the cache budget.
func GraphBytes(u *graph.Undirected) int64 {
	b := int64(len(u.Adj.RowPtr))*8 + int64(len(u.Adj.ColIdx))*4 + int64(len(u.Adj.Val))*8
	for _, l := range u.Labels {
		b += int64(len(l)) + 16
	}
	return b
}

// Get returns the cached graph for key and its hierarchy memo, marking
// it most recently used. The "cache.get" fault site exercises delay and
// panic injection; Get has no error path, so injected errors are misses.
func (c *Cache) Get(key CacheKey) (*graph.Undirected, *multilevel.Memo, bool) {
	if err := faultinject.Fire("cache.get"); err != nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	ent := el.Value.(*cacheEntry)
	return ent.u, ent.hier, true
}

// Put inserts the graph under key — replacing an entry already there,
// kept hierarchy and all — evicting LRU entries until the budget holds,
// and reports whether it was stored: an oversized graph is not, and the
// "cache.put" fault site turns injected errors into dropped inserts.
func (c *Cache) Put(key CacheKey, u *graph.Undirected) bool {
	if err := faultinject.Fire("cache.put"); err != nil {
		return false
	}
	ent := &cacheEntry{key: key, u: u, bytes: GraphBytes(u)}
	ent.hier = multilevel.NewMemo(u.Adj, func(held int64) bool { return c.keepHierarchy(ent, held) })
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent.bytes > c.budget {
		return false
	}
	if el, ok := c.items[key]; ok {
		old := el.Value.(*cacheEntry)
		c.used -= old.bytes + old.held
		el.Value = ent
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(ent)
	}
	c.used += ent.bytes
	for c.used > c.budget {
		c.evictOldest()
	}
	return true
}

// keepHierarchy is ent's memo asking to keep held bytes of hierarchy in
// place of what it has: charged to ent, evicting older entries as Put
// does; refused when ent has gone or could not fit the budget with it.
func (c *Cache) keepHierarchy(ent *cacheEntry, held int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[ent.key]
	if !ok || el.Value != ent || ent.bytes+held > c.budget {
		return false
	}
	c.used += held - ent.held
	ent.held = held
	c.order.MoveToFront(el)
	for c.used > c.budget {
		c.evictOldest()
	}
	return true
}

// evictOldest removes the least-recently-used entry. Callers hold c.mu.
func (c *Cache) evictOldest() {
	el := c.order.Back()
	if el == nil {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.items, ent.key)
	c.used -= ent.bytes + ent.held
	c.evictions++
}

// Len returns the number of cached graphs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the bytes currently charged against the budget.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Stats returns cumulative hit, miss and eviction counts.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
