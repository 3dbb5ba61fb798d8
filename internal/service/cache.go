package service

import (
	"container/list"
	"time"
)

// cached is one immutable analysis result as stored in the cache: the
// rendered bodies, ready to replay byte-for-byte. Entries are never
// mutated after insertion, so concurrent readers share them without
// copying.
type cached struct {
	json []byte    // the JSON body
	text []byte    // the trustseq-identical text body
	at   time.Time // render time, feeding the cache-age stats
}

// lru is a bounded LRU keyed by a [2]uint64 digest. The Service keeps
// two: the result cache (request key → rendered bodies) and the base
// cache (problem digest → plan, the incremental path's diff targets).
// It is not safe for concurrent use on its own; the Service serializes
// access under its own mutex (every operation is O(1) map+list work, so
// a single lock is never the bottleneck next to an engine run).
type lru[V any] struct {
	max     int
	order   *list.List // front = most recently used; values are *lruEntry[V]
	entries map[[2]uint64]*list.Element
}

type lruEntry[V any] struct {
	key [2]uint64
	val V
}

func newLRU[V any](max int) *lru[V] {
	if max < 1 {
		max = 1
	}
	return &lru[V]{
		max:     max,
		order:   list.New(),
		entries: make(map[[2]uint64]*list.Element, max),
	}
}

// get returns the cached value and bumps its recency.
func (c *lru[V]) get(key [2]uint64) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put inserts or refreshes a value, evicting the least recently used
// entry when full. It reports whether an entry was evicted.
func (c *lru[V]) put(key [2]uint64, val V) (evicted bool) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return false
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	if c.order.Len() <= c.max {
		return false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	delete(c.entries, oldest.Value.(*lruEntry[V]).key)
	return true
}

// len reports the number of cached values.
func (c *lru[V]) len() int { return c.order.Len() }

// each visits every cached value in recency order (most recent first).
func (c *lru[V]) each(f func(V)) {
	for el := c.order.Front(); el != nil; el = el.Next() {
		f(el.Value.(*lruEntry[V]).val)
	}
}
