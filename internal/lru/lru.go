// Package lru is the one budgeted store under every cache tier of the
// repository: the leaf and interior tiers of internal/core's
// SharedCache, the kv server's resident set, and the decoded-segment
// cache of internal/dataset. Entries leave it through the eviction rule
// only, never one by one: no tier invalidates. It imports
// nothing from the repository, so any package may use it.
package lru

// Cache is a map ordered by recency and bounded by an entry cap and a
// byte budget. Every entry carries a cost in bytes that the caller
// states when it stores the entry; the store never looks inside a
// value.
//
// The eviction rule, for every tier, is this one: evict from the cold
// end while over either bound; the most-recently-used entry is never
// its own victim. So an entry larger than the whole budget stays
// resident, alone, until the next insert — a 1-byte budget still keeps
// one entry — and callers that must not hold such an entry reject it
// before Put.
//
// A Cache is not safe for concurrent use; each tier guards it with the
// mutex that guards its own counters.
type Cache[K comparable, V any] struct {
	maxEntries int
	maxBytes   int64
	items      map[K]*node[K, V]
	// root is the sentinel of the circular recency list: root.next is the
	// most recently used entry, root.prev the coldest.
	root  node[K, V]
	bytes int64
}

type node[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *node[K, V]
}

// New creates an empty cache holding at most maxEntries entries and
// maxBytes of stated cost; a bound of 0 leaves that axis unbounded.
func New[K comparable, V any](maxEntries int, maxBytes int64) *Cache[K, V] {
	c := &Cache[K, V]{maxEntries: maxEntries, maxBytes: maxBytes, items: make(map[K]*node[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Bytes returns the summed cost of the resident entries.
func (c *Cache[K, V]) Bytes() int64 { return c.bytes }

// Get returns the value under k and makes it the most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	n, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Put stores v under k at the given cost — replacing value and cost if
// k is resident — makes it the most recently used, and returns how many
// other entries the bounds evicted.
func (c *Cache[K, V]) Put(k K, v V, bytes int64) (evicted int) {
	n, ok := c.items[k]
	if ok {
		c.unlink(n)
		c.bytes -= n.cost
	} else {
		n = &node[K, V]{key: k}
		c.items[k] = n
	}
	n.val, n.cost = v, bytes
	c.bytes += bytes
	c.pushFront(n)
	return c.evict()
}

// evict applies the eviction rule stated on Cache.
func (c *Cache[K, V]) evict() (evicted int) {
	for len(c.items) > 1 && (c.maxEntries > 0 && len(c.items) > c.maxEntries || c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.remove(c.root.prev)
		evicted++
	}
	return evicted
}

func (c *Cache[K, V]) remove(n *node[K, V]) {
	c.unlink(n)
	delete(c.items, n.key)
	c.bytes -= n.cost
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}
