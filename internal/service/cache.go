package service

import "container/list"

// lru is the per-worker warm-state cache: a plain entry-count-bounded LRU
// over string keys. It is deliberately NOT thread-safe — each instance is
// owned by exactly one shard worker goroutine, which is the whole
// ownership story for the mutable warm assets it holds (capsearch.Family
// memoization, chain checkpoints). The cached values themselves are pure
// functions of their keys, so eviction can change wall-clock but never a
// response (DESIGN.md §10).
//
//jellyvet:confined
type lru struct {
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
	// refuse is the owning worker's cancellation latch: while it reports
	// true, put stores nothing, because the value may come from an
	// interrupted kernel (see worker.interrupted).
	refuse func() bool
}

type lruEntry struct {
	key string
	val any
}

func newLRU(capacity int, refuse func() bool) *lru {
	return &lru{cap: capacity, order: list.New(), items: make(map[string]*list.Element), refuse: refuse}
}

func (c *lru) get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lru) put(key string, val any) {
	if c.refuse() {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// remove drops one entry, if present. Used by panic containment to
// discard a family's possibly-poisoned warm state: a kernel that
// panicked mid-mutation may have left the memoized asset inconsistent,
// and the pure-function-of-key guarantee only holds for values a
// completed execution produced.
func (c *lru) remove(key string) {
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

func (c *lru) len() int { return c.order.Len() }
