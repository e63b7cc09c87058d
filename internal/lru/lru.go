// Package lru provides a small bounded least-recently-used cache with
// hit/miss/eviction accounting. It backs the serving layer's memoization:
// reasoning results, explanations, rendered responses and the router's
// session locations live in LRU caches so that memory stays bounded under
// heavy traffic while repeated queries are served from memory (the Vadalog
// system papers motivate exactly this split between an optimized reasoning
// core and a bounded serving layer above it).
//
// All methods are safe for concurrent use. Values are returned as stored;
// callers that share cached pointers across goroutines must treat the
// pointed-to data as immutable, which is the contract of every value the
// serving layer caches (chase results, explanations, rendered responses).
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU map from K to V. The zero value is not usable;
// create caches with New.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

// entry is one cache slot, stored in the recency list.
type entry[K comparable, V any] struct {
	key K
	val V
}

// Stats is a point-in-time snapshot of cache accounting.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped to respect capacity.
	Evictions uint64 `json:"evictions"`
	// Len and Cap describe current occupancy.
	Len int `json:"len"`
	Cap int `json:"cap"`
}

// New creates a cache holding at most capacity entries; capacity < 1 is
// raised to 1 so a cache is always usable.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:   capacity,
		order: list.New(),
		items: map[K]*list.Element{},
	}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.hits++
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put stores v under k, replacing any existing entry, and evicts the least
// recently used entry when the cache is over capacity.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		c.evictions++
	}
}

// Remove drops the entry stored under k, reporting whether it was present.
// A removal is deliberate and does not count as an eviction.
func (c *Cache[K, V]) Remove(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, k)
	return true
}

// RemoveFunc removes every entry matching pred under one lock
// acquisition, without touching hit/miss accounting or recency order,
// and returns how many were removed. Removals are deliberate: the
// eviction stat does not move. The router uses it to sweep the location
// cache when a worker leaves service — a walk of Gets would bump recency
// and stats per entry and contend with request-path lookups exactly when
// the tier is degraded.
func (c *Cache[K, V]) RemoveFunc(pred func(K, V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*entry[K, V])
		if pred(e.key, e.val) {
			c.order.Remove(el)
			delete(c.items, e.key)
			n++
		}
		el = next
	}
	return n
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cap returns the capacity the cache was created with.
func (c *Cache[K, V]) Cap() int { return c.cap }

// Stats snapshots the cache accounting.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       c.order.Len(),
		Cap:       c.cap,
	}
}
