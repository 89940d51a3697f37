package server

import (
	"container/list"
	"sync"

	"stwave/internal/obs"
)

// windowKey identifies one decompressed window across all mounted
// datasets. Partial decodes of the same window at different depths are
// distinct entries: a level-0 preview and the full reconstruction have
// different dims and different costs, and evicting one must not evict
// the other.
type windowKey struct {
	dataset string
	window  int
	// levels is the number of coarse level groups a partial-decode entry
	// holds (maxLevel+1); 0 marks a full-window entry, so existing
	// full-window keys are the zero value.
	levels int
}

// WindowCache is a byte-budgeted LRU cache of decompressed windows. A
// decompressed window is large (a 64^3 x 20-slice window is ~40 MB of
// float64 samples), so the cache is bounded by total bytes rather than
// entry count. Cached windows are shared between requests and MUST be
// treated as read-only by all consumers.
type WindowCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	ll     *list.List // front = most recently used
	items  map[windowKey]*list.Element

	// hits/misses are bumped by Get — hit/miss accounting lives here, in
	// the one place every cacheable lookup passes through, so the
	// invariant hits+misses == lookups holds no matter how callers
	// coalesce. Nil counters (tests building a bare cache) are no-ops.
	hits   *obs.Counter
	misses *obs.Counter
}

type cacheEntry struct {
	key  windowKey
	w    window
	size int64
}

// NewWindowCache creates a cache holding at most budget bytes of
// decompressed samples. A budget <= 0 disables caching: Put is a no-op and
// Get always misses.
func NewWindowCache(budget int64) *WindowCache {
	return &WindowCache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[windowKey]*list.Element),
	}
}

// Get returns the cached window for key, promoting it to most recently
// used, and counts the lookup as a hit or a miss. Callers re-checking
// the cache for a lookup they already counted (the flight re-check) must
// use peek instead, so each request counts exactly once.
func (c *WindowCache) Get(key windowKey) (window, bool) {
	w, ok := c.peek(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return w, ok
}

// peek is Get without the hit/miss accounting.
func (c *WindowCache) peek(key windowKey) (window, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).w, true
}

// Put inserts a decompressed window, evicting least-recently-used entries
// until the byte budget holds. A window larger than the whole budget is not
// admitted (admitting it would evict everything for a single entry that
// can never be joined by another).
func (c *WindowCache) Put(key windowKey, w window) {
	size := w.bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		// Replace in place (same key decompresses to the same bytes, but be
		// defensive about size accounting).
		ent := el.Value.(*cacheEntry)
		c.used += size - ent.size
		ent.w, ent.size = w, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, w: w, size: size})
		c.used += size
	}
	for c.used > c.budget {
		c.evictOldest()
	}
}

// evictOldest removes the LRU entry; callers hold c.mu.
func (c *WindowCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.used -= ent.size
}

// Flush drops every cached window (used by benchmarks to force the cold
// path).
func (c *WindowCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[windowKey]*list.Element)
	c.used = 0
}

// Admits reports whether a window of the given decompressed size can ever
// be cached under the budget.
func (c *WindowCache) Admits(size int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return size <= c.budget
}

// CacheStats is the cache's /metrics view.
type CacheStats struct {
	BudgetBytes int64 `json:"budget_bytes"`
	UsedBytes   int64 `json:"used_bytes"`
	Windows     int   `json:"windows"`
}

// Stats snapshots occupancy.
func (c *WindowCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{BudgetBytes: c.budget, UsedBytes: c.used, Windows: len(c.items)}
}
