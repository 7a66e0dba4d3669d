// Package cache provides the proxy's serving-path cache: a generic LRU
// bounded by both bytes and entry count, with singleflight loading so
// concurrent misses on one key coalesce into a single backend fetch.
//
// The shape matches the proxy's fan-out: millions of users viewing a long
// tail of photos means the cache must stay bounded regardless of how many
// distinct keys flow through it, while a popular photo's burst of
// simultaneous views must cost the backend one fetch, not N (the classic
// cache-stampede problem serving-system traces show dominating tail
// latency).
package cache

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's counters. Counters are
// cumulative since construction; Entries and Bytes describe the current
// contents. The tagged fields are the p3_cache_* series the proxy exports
// per cache through metrics.Export (ARCHITECTURE.md § Observability).
type Stats struct {
	Hits      uint64 `json:"hits" metric:"counter" help:"Cache lookups served from memory."`
	Misses    uint64 `json:"misses" metric:"counter" help:"Cache lookups that ran the loader."`
	Coalesced uint64 `json:"coalesced" metric:"counter" help:"Cache lookups that joined an in-flight load."`
	Evictions uint64 `json:"evictions" metric:"counter" help:"Entries evicted to fit the cache budget."`
	Entries   int    `json:"entries" metric:"gauge" help:"Entries currently cached."`
	Bytes     int64  `json:"bytes" metric:"gauge" help:"Bytes currently cached."`
}

// Cache is a size-bounded LRU keyed by string. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Cache[V any] struct {
	maxBytes   int64       // <= 0 means no byte bound
	maxEntries int         // <= 0 means no entry bound
	sizeOf     func(V) int // nil means every entry costs 1 byte

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*call[V]
	gen      uint64 // bumped by Purge; loads started before a purge must not insert
	stats    Stats
}

type entry[V any] struct {
	key  string
	val  V
	size int64
	hits uint64 // lookups served from this entry since insertion
}

// call is one in-flight load; waiters block on done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a cache bounded to maxBytes total value size (per sizeOf) and
// maxEntries entries; a bound <= 0 is unlimited. A nil sizeOf charges every
// entry one byte, turning maxBytes into an entry bound.
func New[V any](maxBytes int64, maxEntries int, sizeOf func(V) int) *Cache[V] {
	return &Cache[V]{
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		sizeOf:     sizeOf,
		ll:         list.New(),
		entries:    make(map[string]*list.Element),
		inflight:   make(map[string]*call[V]),
	}
}

// GetOrLoad returns the cached value for key, or runs load to produce it.
// Concurrent calls for the same key coalesce: exactly one load runs and
// everyone waits for its result. The load runs on a context detached from
// the initiating caller's cancellation (values preserved), so one
// disconnecting client cannot fail the coalesced group; any caller —
// leader included — whose own ctx expires unblocks with ctx.Err() while
// the load completes for the others. A load error is returned to every
// coalesced caller and is not cached — the next call retries. A panicking
// loader is recovered into an error rather than wedging the key.
func (c *Cache[V]) GetOrLoad(ctx context.Context, key string, load func(ctx context.Context) (V, error)) (V, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.ll.MoveToFront(el)
		e := el.Value.(*entry[V])
		e.hits++
		v := e.val
		c.mu.Unlock()
		return v, nil
	}
	cl, ok := c.inflight[key]
	if ok {
		c.stats.Coalesced++
		c.mu.Unlock()
	} else {
		c.stats.Misses++
		cl = &call[V]{done: make(chan struct{})}
		c.inflight[key] = cl
		gen := c.gen
		c.mu.Unlock()
		loadCtx := context.WithoutCancel(ctx)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					cl.err = fmt.Errorf("cache: loader for %q panicked: %v", key, r)
				}
				c.mu.Lock()
				delete(c.inflight, key)
				// A Purge during the load means the caller wanted pre-purge
				// data gone — don't re-populate with it.
				if cl.err == nil && gen == c.gen {
					c.putLocked(key, cl.val)
				}
				c.mu.Unlock()
				close(cl.done)
			}()
			cl.val, cl.err = load(loadCtx)
		}()
	}
	select {
	case <-cl.done:
		return cl.val, cl.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Get returns the cached value without loading.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.ll.MoveToFront(el)
		e := el.Value.(*entry[V])
		e.hits++
		return e.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether key is currently cached, without counting a hit
// or refreshing the entry's LRU position — a metrics probe, not a lookup.
func (c *Cache[V]) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// HotKey is one row of the popularity ranking HotKeys returns.
type HotKey struct {
	Key  string
	Hits uint64
}

// HotKeys returns up to n cached keys ranked by lookups served since each
// entry was inserted, hottest first (ties break toward more recent use) —
// the working set a post-recalibration pre-warm should reconstruct before
// traffic finds the cold entries. It walks every entry under the lock, so
// callers are expected to be occasional (once per recalibration), not on
// the serving path.
func (c *Cache[V]) HotKeys(n int) []HotKey {
	if n <= 0 {
		return nil
	}
	c.mu.Lock()
	all := make([]HotKey, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[V])
		all = append(all, HotKey{Key: e.key, Hits: e.hits})
	}
	c.mu.Unlock()
	// The walk emitted entries most-recently-used first; a stable sort on
	// hits therefore keeps recency as the tiebreak.
	sort.SliceStable(all, func(i, j int) bool { return all[i].Hits > all[j].Hits })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Put inserts or replaces a value, evicting LRU entries as needed. Used to
// warm the cache with data the caller already has (e.g. the secret part it
// just uploaded), saving the first view's backend fetch.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, v)
}

// Delete removes one entry (a no-op for absent keys). It does not count as
// an eviction.
func (c *Cache[V]) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
}

// Purge empties the cache, e.g. when recalibration invalidates every
// reconstructed variant. Loads in flight at purge time complete for their
// waiters but are not inserted. Cumulative counters survive; purged entries
// do not count as evictions.
func (c *Cache[V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.entries)
	c.gen++
	c.stats.Entries = 0
	c.stats.Bytes = 0
}

// PurgeMatching removes every entry whose key satisfies pred, e.g. a
// selective invalidation that spares entries a config change cannot have
// affected. Like Purge it bumps the load generation, so loads in flight at
// purge time complete for their waiters but are not inserted (the
// predicate cannot be consulted for them — their keys are not yet in the
// cache). Removed entries do not count as evictions.
func (c *Cache[V]) PurgeMatching(pred func(key string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if pred(el.Value.(*entry[V]).key) {
			c.removeLocked(el)
		}
	}
	c.gen++
}

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters and current size.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Cache[V]) size(v V) int64 {
	if c.sizeOf == nil {
		return 1
	}
	return int64(c.sizeOf(v))
}

func (c *Cache[V]) putLocked(key string, v V) {
	size := c.size(v)
	if c.maxBytes > 0 && size > c.maxBytes {
		// The value alone busts the budget: admitting it would evict the
		// whole cache and then itself. Serve it uncached.
		if el, ok := c.entries[key]; ok {
			c.removeLocked(el) // a stale smaller value must not linger
		}
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[V])
		c.stats.Bytes += size - e.size
		e.val, e.size = v, size
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&entry[V]{key: key, val: v, size: size})
		c.stats.Entries++
		c.stats.Bytes += size
	}
	for (c.maxBytes > 0 && c.stats.Bytes > c.maxBytes) ||
		(c.maxEntries > 0 && c.stats.Entries > c.maxEntries) {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
		c.stats.Evictions++
	}
}

func (c *Cache[V]) removeLocked(el *list.Element) {
	e := el.Value.(*entry[V])
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.stats.Entries--
	c.stats.Bytes -= e.size
}
