package serve

import (
	"container/list"
	"sync"
)

// lruCache is a bounded, thread-safe LRU map from canonical request keys
// to encoded response bodies. Values are the exact bytes written to
// clients, so a hit is byte-identical to the miss that populated it.
//
// A nonpositive max disables the cache explicitly: Add is a no-op and
// Get always misses. (The previous behavior — insert, then immediately
// evict the entry just inserted because Len() > 0 — turned every request
// into a miss AND churned the singleflight group on each one.)
type lruCache struct {
	mu       sync.Mutex
	max      int
	disabled bool
	ll       *list.List
	items    map[string]*list.Element
}

// lruEntry is one cache slot.
type lruEntry struct {
	key string
	val []byte
}

// newLRUCache returns an empty cache holding at most max entries. A
// nonpositive max returns a disabled cache that stores nothing.
func newLRUCache(max int) *lruCache {
	if max <= 0 {
		return &lruCache{disabled: true, ll: list.New()}
	}
	return &lruCache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element, max),
	}
}

// Get returns the cached bytes for key and refreshes its recency.
func (c *lruCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Add stores val under key, evicting the least recently used entry when
// the cache is full. Storing an existing key refreshes its value and
// recency. On a disabled cache it stores nothing.
//
// The cache keeps an exact-size copy when val has spare capacity: an
// encoder's buffer (json.MarshalIndent's is about twice the body) would
// otherwise stay pinned, whole, for as long as the entry lives.
func (c *lruCache) Add(key string, val []byte) {
	if c.disabled {
		return
	}
	if cap(val) != len(val) {
		exact := make([]byte, len(val))
		copy(exact, val)
		val = exact
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the current entry count.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
