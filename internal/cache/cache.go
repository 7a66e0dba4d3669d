// Package cache provides the proxy's serving-path cache: a generic CLOCK
// cache bounded by both bytes and entry count, with singleflight loading so
// concurrent misses on one key coalesce into a single backend fetch.
//
// The shape matches the proxy's fan-out: millions of users viewing a long
// tail of photos means the cache must stay bounded regardless of how many
// distinct keys flow through it, while a popular photo's burst of
// simultaneous views must cost the backend one fetch, not N (the classic
// cache-stampede problem serving-system traces show dominating tail
// latency).
//
// Nor may a hit serialise those views. Entries sit on one insertion ring
// swept by one hand (CLOCK): a hit takes only the read lock and sets the
// entry's reference bit atomically; insertion and the global eviction take
// the write lock. The hand clears and passes a referenced entry, so an
// entry hit since it last came round survives the next eviction and
// untouched entries leave in insertion order.
//
// A key's group is the field between its first and second NUL byte (the
// photo or clip id of a proxy variant key). DeleteGroup removes one group's
// entries in time proportional to the group.
package cache

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// Cache is a size-bounded CLOCK cache keyed by string. The zero value is
// not usable; construct with New. All methods are safe for concurrent use.
type Cache[V any] struct {
	maxBytes   int64       // <= 0 means no byte bound
	maxEntries int         // <= 0 means no entry bound
	sizeOf     func(V) int // nil means every entry costs 1 byte
	hits       atomic.Uint64

	mu       sync.RWMutex
	entries  map[string]*entry[V]
	hand     *entry[V] // next eviction candidate; nil when empty
	groups   map[string]*group[V]
	inflight map[string]*call[V]
	gen      uint64 // bumped by Purge and PurgeMatching; loads started before must not insert
	stats    Stats  // all but Hits, under mu
}

// entry is one cached value. key, val and size never change after the
// entry is published, so a reader may use them after dropping the lock.
type entry[V any] struct {
	key  string
	val  V
	size int64
	ref  atomic.Bool   // set by a hit, cleared by the passing hand
	hits atomic.Uint64 // lookups served from this entry since insertion

	prev, next   *entry[V] // the insertion ring, under mu
	gprev, gnext *entry[V] // the group's entries, under mu
	grp          *group[V] // nil for a key outside any group
}

// group indexes one group's entries and guards its in-flight loads; the
// record lives while it has either.
type group[V any] struct {
	id    string
	head  *entry[V]
	loads int    // loads in flight for keys of the group
	gen   uint64 // bumped by DeleteGroup; a load started before must not insert
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
		entries:    make(map[string]*entry[V]),
		groups:     make(map[string]*group[V]),
		inflight:   make(map[string]*call[V]),
	}
}

// groupOf returns the field between key's first and second NUL.
func groupOf(key string) (string, bool) {
	_, rest, ok := strings.Cut(key, "\x00")
	if !ok {
		return "", false
	}
	id, _, ok := strings.Cut(rest, "\x00")
	return id, ok
}

// hit counts one lookup served from e and marks it referenced. The bit is
// stored only when clear: an atomic store costs a locked instruction, a
// load does not.
func (c *Cache[V]) hit(e *entry[V]) V {
	c.hits.Add(1)
	e.hits.Add(1)
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	return e.val
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
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e != nil {
		return c.hit(e), nil
	}
	c.mu.Lock()
	if e := c.entries[key]; e != nil { // inserted since the read lock
		c.mu.Unlock()
		return c.hit(e), nil
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
		g := c.groupLocked(key)
		var ggen uint64
		if g != nil {
			g.loads++
			ggen = g.gen
		}
		c.mu.Unlock()
		loadCtx := context.WithoutCancel(ctx)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					cl.err = fmt.Errorf("cache: loader for %q panicked: %v", key, r)
				}
				c.mu.Lock()
				delete(c.inflight, key)
				// A Purge or a DeleteGroup of this key's group during the
				// load means the caller wanted pre-purge data gone — don't
				// re-populate with it. The load keeps g in the index until
				// the insert is done, so the insert cannot re-create it.
				if cl.err == nil && gen == c.gen && (g == nil || ggen == g.gen) {
					c.putLocked(key, cl.val)
				}
				if g != nil {
					g.loads--
					c.dropIdleLocked(g)
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

// Get returns the cached value without loading, counting a hit. It takes
// the key as bytes, so a caller that appends its key into a buffer looks
// it up without allocating.
func (c *Cache[V]) Get(key []byte) (V, bool) {
	c.mu.RLock()
	e := c.entries[string(key)]
	c.mu.RUnlock()
	if e == nil {
		var zero V
		return zero, false
	}
	return c.hit(e), true
}

// Contains reports whether key is currently cached, without counting a hit
// or setting the entry's reference bit — a probe, not a lookup.
func (c *Cache[V]) Contains(key []byte) bool {
	c.mu.RLock()
	_, ok := c.entries[string(key)]
	c.mu.RUnlock()
	return ok
}

// HotKey is one row of the popularity ranking HotKeys returns.
type HotKey struct {
	Key  string
	Hits uint64
}

// HotKeys returns up to n cached keys ranked by lookups served since each
// entry was inserted, hottest first (ties break toward more recent
// insertion) — the working set a post-recalibration pre-warm should
// reconstruct before traffic finds the cold entries. It walks every entry
// under the read lock, so callers are expected to be occasional (once per
// recalibration), not on the serving path.
func (c *Cache[V]) HotKeys(n int) []HotKey {
	if n <= 0 {
		return nil
	}
	c.mu.RLock()
	all := make([]HotKey, 0, len(c.entries))
	if c.hand != nil {
		// The entry behind the hand is the newest; walk back from it.
		for e := c.hand.prev; ; e = e.prev {
			all = append(all, HotKey{Key: e.key, Hits: e.hits.Load()})
			if e == c.hand {
				break
			}
		}
	}
	c.mu.RUnlock()
	sort.SliceStable(all, func(i, j int) bool { return all[i].Hits > all[j].Hits })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Put inserts or replaces a value, evicting entries as needed. Used to
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
	if e := c.entries[key]; e != nil {
		c.removeLocked(e)
	}
}

// DeleteGroup removes every entry of one group (see the package comment)
// in time proportional to the group's entries, not the cache's. Loads of
// the group's keys in flight at the call complete for their waiters but
// are not inserted; other groups' loads are untouched. Removed entries do
// not count as evictions.
func (c *Cache[V]) DeleteGroup(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[id]
	if g == nil {
		return
	}
	g.gen++
	for e := g.head; e != nil; e = e.gnext {
		c.removeLocked(e) // leaves e.gnext intact
	}
}

// Purge empties the cache, e.g. when recalibration invalidates every
// reconstructed variant. Loads in flight at purge time complete for their
// waiters but are not inserted. Cumulative counters survive; purged entries
// do not count as evictions.
func (c *Cache[V]) Purge() { c.PurgeMatching(func(string) bool { return true }) }

// PurgeMatching removes every entry whose key satisfies pred, e.g. a
// selective invalidation that spares entries a config change cannot have
// affected. Like Purge it bumps the load generation, so loads in flight at
// purge time complete for their waiters but are not inserted (the
// predicate cannot be consulted for them — their keys are not yet in the
// cache). Removed entries do not count as evictions.
func (c *Cache[V]) PurgeMatching(pred func(key string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		if pred(key) {
			c.removeLocked(e)
		}
	}
	c.gen++
}

// Stats returns a snapshot of the counters and current size.
func (c *Cache[V]) Stats() Stats {
	c.mu.RLock()
	s := c.stats
	c.mu.RUnlock()
	s.Hits = c.hits.Load()
	return s
}

// groupLocked returns key's group record, created if absent; nil for a key
// outside any group.
func (c *Cache[V]) groupLocked(key string) *group[V] {
	id, ok := groupOf(key)
	if !ok {
		return nil
	}
	g := c.groups[id]
	if g == nil {
		g = &group[V]{id: id}
		c.groups[id] = g
	}
	return g
}

// dropIdleLocked forgets g once it has no entries and no loads.
func (c *Cache[V]) dropIdleLocked(g *group[V]) {
	if g.head == nil && g.loads == 0 {
		delete(c.groups, g.id)
	}
}

func (c *Cache[V]) putLocked(key string, v V) {
	if old := c.entries[key]; old != nil {
		c.removeLocked(old) // replaced by a new entry, so readers never see val change
	}
	size := int64(1)
	if c.sizeOf != nil {
		size = int64(c.sizeOf(v))
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		// The value alone busts the budget: admitting it would evict the
		// whole cache and then itself. Serve it uncached.
		return
	}
	// Evict before inserting, so the new entry is never its own victim: the
	// hand clears and passes referenced entries and takes the first
	// unreferenced one.
	for c.hand != nil && ((c.maxBytes > 0 && c.stats.Bytes+size > c.maxBytes) ||
		(c.maxEntries > 0 && c.stats.Entries >= c.maxEntries)) {
		for c.hand.ref.Load() {
			c.hand.ref.Store(false)
			c.hand = c.hand.next
		}
		c.removeLocked(c.hand)
		c.stats.Evictions++
	}
	e := &entry[V]{key: key, val: v, size: size}
	// Insert just behind the hand: the newest entry is the last the hand
	// reaches.
	if c.hand == nil {
		e.prev, e.next = e, e
		c.hand = e
	} else {
		e.prev, e.next = c.hand.prev, c.hand
		e.prev.next, c.hand.prev = e, e
	}
	if g := c.groupLocked(key); g != nil {
		e.grp, e.gnext = g, g.head
		if g.head != nil {
			g.head.gprev = e
		}
		g.head = e
	}
	c.entries[key] = e
	c.stats.Entries++
	c.stats.Bytes += size
}

func (c *Cache[V]) removeLocked(e *entry[V]) {
	if e.next == e {
		c.hand = nil
	} else {
		if c.hand == e {
			c.hand = e.next
		}
		e.prev.next, e.next.prev = e.next, e.prev
	}
	if g := e.grp; g != nil {
		if e.gprev == nil {
			g.head = e.gnext
		} else {
			e.gprev.gnext = e.gnext
		}
		if e.gnext != nil {
			e.gnext.gprev = e.gprev
		}
		c.dropIdleLocked(g)
	}
	delete(c.entries, e.key)
	c.stats.Entries--
	c.stats.Bytes -= e.size
}
