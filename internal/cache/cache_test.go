package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var ctx = context.Background()

func byteSize(b []byte) int { return len(b) }

func TestGetOrLoadCachesValue(t *testing.T) {
	c := New[[]byte](1<<20, 0, byteSize)
	loads := 0
	load := func(context.Context) ([]byte, error) { loads++; return []byte("value"), nil }
	for i := 0; i < 3; i++ {
		v, err := c.GetOrLoad(ctx, "k", load)
		if err != nil || string(v) != "value" {
			t.Fatalf("GetOrLoad = %q, %v", v, err)
		}
	}
	if loads != 1 {
		t.Errorf("loader ran %d times, want 1", loads)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Bytes != 5 || st.Entries != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestGetOrLoadErrorNotCached(t *testing.T) {
	c := New[[]byte](1<<20, 0, byteSize)
	boom := errors.New("boom")
	calls := 0
	if _, err := c.GetOrLoad(ctx, "k", func(context.Context) ([]byte, error) {
		calls++
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if v, err := c.GetOrLoad(ctx, "k", func(context.Context) ([]byte, error) {
		calls++
		return []byte("ok"), nil
	}); err != nil || string(v) != "ok" {
		t.Fatalf("retry = %q, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("loader ran %d times, want 2 (errors must not be cached)", calls)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries %d after failed+ok load, want 1", st.Entries)
	}
}

// TestSingleflight is the stampede test: N concurrent misses on one key run
// the loader exactly once, and everyone gets its result.
func TestSingleflight(t *testing.T) {
	c := New[[]byte](1<<20, 0, byteSize)
	const n = 50
	var loads atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-started
			results[i], errs[i] = c.GetOrLoad(ctx, "hot", func(context.Context) ([]byte, error) {
				loads.Add(1)
				<-release // hold the load open so everyone piles up
				return []byte("payload"), nil
			})
		}(i)
	}
	close(started)
	time.Sleep(20 * time.Millisecond) // let the waiters queue behind the leader
	close(release)
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Fatalf("loader ran %d times for %d concurrent gets, want 1", got, n)
	}
	for i := range results {
		if errs[i] != nil || string(results[i]) != "payload" {
			t.Fatalf("caller %d got %q, %v", i, results[i], errs[i])
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Coalesced == 0 {
		t.Errorf("coalesced = 0, want > 0 (waiters should have joined the flight)")
	}
	if st.Misses+st.Coalesced != n {
		t.Errorf("misses %d + coalesced %d != %d callers", st.Misses, st.Coalesced, n)
	}
}

// TestLoaderPanicRecovered: a panicking loader must not wedge its key —
// callers get an error and the next load retries.
func TestLoaderPanicRecovered(t *testing.T) {
	c := New[[]byte](1<<20, 0, byteSize)
	_, err := c.GetOrLoad(ctx, "k", func(context.Context) ([]byte, error) {
		panic("boom")
	})
	if err == nil {
		t.Fatal("panicking loader returned nil error")
	}
	// The key must be loadable again.
	v, err := c.GetOrLoad(ctx, "k", func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || string(v) != "ok" {
		t.Fatalf("retry after panic = %q, %v", v, err)
	}
}

// TestLeaderCancelDoesNotFailWaiters: the load is detached from the
// initiating caller's context, so a leader that gives up gets its own
// ctx.Err() while the waiters still receive the loaded value.
func TestLeaderCancelDoesNotFailWaiters(t *testing.T) {
	c := New[[]byte](1<<20, 0, byteSize)
	leaderCtx, cancelLeader := context.WithCancel(ctx)
	inLoad := make(chan struct{})
	release := make(chan struct{})

	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.GetOrLoad(leaderCtx, "k", func(lctx context.Context) ([]byte, error) {
			close(inLoad)
			select {
			case <-release:
				return []byte("survived"), nil
			case <-lctx.Done(): // must not fire: the load ctx is detached
				return nil, lctx.Err()
			}
		})
		leaderErr <- err
	}()
	<-inLoad
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader err = %v, want context.Canceled", err)
	}
	// A waiter joining after the leader bailed still gets the result.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := c.GetOrLoad(ctx, "k", nil)
		if err != nil || string(v) != "survived" {
			t.Errorf("waiter after leader cancel = %q, %v", v, err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-done
}

func TestWaiterContextCancel(t *testing.T) {
	c := New[[]byte](1<<20, 0, byteSize)
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	go func() {
		c.GetOrLoad(ctx, "k", func(context.Context) ([]byte, error) {
			close(leaderIn)
			<-release
			return []byte("late"), nil
		})
	}()
	<-leaderIn
	wctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.GetOrLoad(wctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestByteBoundEvictsInInsertionOrder: with nothing touched, the hand
// evicts the oldest entries first.
func TestByteBoundEvictsInInsertionOrder(t *testing.T) {
	c := New[[]byte](100, 0, byteSize)
	blob := make([]byte, 40)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), blob)
	}
	st := c.Stats()
	if st.Bytes > 100 {
		t.Errorf("bytes %d exceed budget 100", st.Bytes)
	}
	if st.Entries != 2 {
		t.Errorf("entries %d, want 2 (two 40B blobs fit in 100B)", st.Entries)
	}
	if st.Evictions != 8 {
		t.Errorf("evictions %d, want 8", st.Evictions)
	}
	// The survivors are the most recently inserted.
	if _, ok := c.Get([]byte("k9")); !ok {
		t.Error("most recent entry evicted")
	}
	if _, ok := c.Get([]byte("k0")); ok {
		t.Error("oldest entry survived")
	}
}

// TestClockSparesTouchedEntry: a hit sets the entry's reference bit, so
// the next eviction passes over it and takes the untouched one.
func TestClockSparesTouchedEntry(t *testing.T) {
	c := New[[]byte](0, 2, byteSize)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Get([]byte("a")) // a is referenced; b, inserted later, is not
	c.Put("c", []byte("3"))
	if _, ok := c.Get([]byte("b")); ok {
		t.Error("untouched b should have been evicted before touched a")
	}
	if _, ok := c.Get([]byte("a")); !ok {
		t.Error("recently used a was evicted")
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New[[]byte](10, 0, byteSize)
	c.Put("small", []byte("1234"))
	c.Put("huge", make([]byte, 1000))
	if _, ok := c.Get([]byte("huge")); ok {
		t.Error("oversized value was cached")
	}
	if _, ok := c.Get([]byte("small")); !ok {
		t.Error("oversized insert evicted unrelated entries")
	}
	// Replacing a cached value with an oversized one must drop the stale copy.
	c.Put("small", make([]byte, 1000))
	if _, ok := c.Get([]byte("small")); ok {
		t.Error("stale small value survived oversized replacement")
	}
}

func TestReplaceAdjustsBytes(t *testing.T) {
	c := New[[]byte](1<<20, 0, byteSize)
	c.Put("k", make([]byte, 100))
	c.Put("k", make([]byte, 30))
	if st := c.Stats(); st.Bytes != 30 || st.Entries != 1 {
		t.Errorf("stats after replace: %+v", st)
	}
}

// TestPurgeDuringLoadNotReinserted: a Purge that lands while a load is in
// flight means "pre-purge data is invalid" — the completing load must hand
// its value to waiters but not insert it.
func TestPurgeDuringLoadNotReinserted(t *testing.T) {
	c := New[[]byte](1<<20, 0, byteSize)
	inLoad := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := c.GetOrLoad(ctx, "k", func(context.Context) ([]byte, error) {
			close(inLoad)
			<-release
			return []byte("pre-purge"), nil
		})
		if err != nil || string(v) != "pre-purge" {
			t.Errorf("loader's caller got %q, %v", v, err)
		}
	}()
	<-inLoad
	c.Purge()
	close(release)
	<-done
	if _, ok := c.Get([]byte("k")); ok {
		t.Error("pre-purge load was inserted after Purge")
	}
}

func TestDeleteAndPurge(t *testing.T) {
	c := New[[]byte](0, 0, byteSize)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("22"))
	c.Delete("a")
	c.Delete("missing")
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 2 {
		t.Errorf("after delete: %+v", st)
	}
	c.Purge()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 0 {
		t.Errorf("after purge: %+v", st)
	}
	if _, ok := c.Get([]byte("b")); ok {
		t.Error("purged entry still present")
	}
}

func TestNilSizeOfCountsEntries(t *testing.T) {
	c := New[int](3, 0, nil)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Errorf("entries %d, want 3 with nil sizeOf and maxBytes 3", st.Entries)
	}
}

// TestConcurrentMixedUse hammers every method; run under -race.
func TestConcurrentMixedUse(t *testing.T) {
	c := New[[]byte](1<<12, 64, byteSize)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("1\x00p%d\x00%d", (g*7+i)%8, (g*7+i)%4)
				switch i % 7 {
				case 0:
					c.Put(key, make([]byte, 64))
				case 1:
					c.Get([]byte(key))
				case 2:
					c.GetOrLoad(ctx, key, func(context.Context) ([]byte, error) {
						return make([]byte, 64), nil
					})
				case 3:
					c.Delete(key)
				case 4:
					c.DeleteGroup(fmt.Sprintf("p%d", i%8))
				case 5:
					c.HotKeys(4)
				default:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 1<<12 || st.Entries > 64 {
		t.Errorf("bounds violated after concurrent use: %+v", st)
	}
	checkIndex(t, c)
}

// checkIndex holds the ring and the group index to the entry map: the ring
// links every entry once, each group lists exactly its keys' entries, and
// no record outlives its entries and loads, whose count it keeps.
func checkIndex[V any](t *testing.T, c *Cache[V]) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	ring := 0
	if c.hand != nil {
		for e := c.hand; ; e = e.next {
			if c.entries[e.key] != e || e.next.prev != e {
				t.Fatalf("ring entry %q is not the mapped one or is mislinked", e.key)
			}
			if ring++; e.next == c.hand {
				break
			}
		}
	}
	if ring != len(c.entries) || ring != c.stats.Entries {
		t.Fatalf("ring holds %d entries, map %d, stats %d", ring, len(c.entries), c.stats.Entries)
	}
	loads := make(map[string]int)
	for key := range c.inflight {
		if id, ok := groupOf(key); ok {
			loads[id]++
		}
	}
	grouped := 0
	for id, g := range c.groups {
		if g.id != id || g.head == nil && g.loads == 0 || g.loads != loads[id] {
			t.Errorf("group %q kept as %q with head %p and %d loads (%d in flight)", id, g.id, g.head, g.loads, loads[id])
		}
		for e := g.head; e != nil; e = e.gnext {
			if kid, _ := groupOf(e.key); kid != id || e.grp != g || c.entries[e.key] != e ||
				(e.gnext != nil && e.gnext.gprev != e) || (e == g.head) != (e.gprev == nil) {
				t.Fatalf("group %q lists %q wrongly", id, e.key)
			}
			grouped++
		}
	}
	for key := range c.entries {
		if _, ok := groupOf(key); ok {
			grouped--
		}
	}
	if grouped != 0 {
		t.Errorf("group index and entry map disagree by %d entries", grouped)
	}
}

// TestPurgeMatching removes only the entries the predicate selects and
// keeps the survivors' bytes/entries accounting consistent.
func TestPurgeMatching(t *testing.T) {
	c := New(0, 0, func(b []byte) int { return len(b) })
	c.Put("photo\x00a", make([]byte, 10))
	c.Put("photo\x00b", make([]byte, 20))
	c.Put("video\x00a", make([]byte, 40))
	c.PurgeMatching(func(key string) bool { return key[:6] == "photo\x00" })
	if _, ok := c.Get([]byte("photo\x00a")); ok {
		t.Error("matched entry survived")
	}
	if _, ok := c.Get([]byte("photo\x00b")); ok {
		t.Error("matched entry survived")
	}
	if _, ok := c.Get([]byte("video\x00a")); !ok {
		t.Error("unmatched entry purged")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 40 {
		t.Errorf("accounting after selective purge: %+v", st)
	}
	if st.Evictions != 0 {
		t.Errorf("selective purge counted as %d evictions", st.Evictions)
	}
	checkIndex(t, c)
}

// TestHotKeys: the ranking orders entries by lookups served, hottest
// first, and caps at n — the working set a pre-warm rebuilds.
func TestHotKeys(t *testing.T) {
	c := New[[]byte](0, 0, byteSize)
	c.Put("cold", []byte("c"))
	c.Put("warm", []byte("w"))
	c.Put("hot", []byte("h"))
	for i := 0; i < 5; i++ {
		c.Get([]byte("hot"))
	}
	for i := 0; i < 2; i++ {
		c.Get([]byte("warm"))
	}
	got := c.HotKeys(2)
	if len(got) != 2 || got[0].Key != "hot" || got[0].Hits != 5 || got[1].Key != "warm" || got[1].Hits != 2 {
		t.Errorf("HotKeys(2) = %+v, want hot(5), warm(2)", got)
	}
	if all := c.HotKeys(10); len(all) != 3 {
		t.Errorf("HotKeys(10) returned %d entries, want all 3", len(all))
	}
	if c.HotKeys(0) != nil {
		t.Error("HotKeys(0) must return nil")
	}
	// GetOrLoad hits count too; loads (misses) do not.
	if _, err := c.GetOrLoad(ctx, "cold", func(context.Context) ([]byte, error) {
		t.Error("loader ran for a cached key")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.HotKeys(10); got[len(got)-1].Key != "cold" || got[len(got)-1].Hits != 1 {
		t.Errorf("GetOrLoad hit not counted: %+v", got)
	}
}

// TestContains is a pure probe: no hit counted, no reference bit set.
func TestContains(t *testing.T) {
	c := New[[]byte](0, 2, byteSize)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if !c.Contains([]byte("a")) || c.Contains([]byte("missing")) {
		t.Error("Contains gave wrong membership")
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Errorf("Contains counted %d hits, want 0", st.Hits)
	}
	// "a" is still unreferenced despite the Contains probe: inserting a
	// third entry into the 2-entry budget must evict it, not "b".
	c.Put("c", []byte("3"))
	if c.Contains([]byte("a")) || !c.Contains([]byte("b")) {
		t.Error("Contains set the reference bit")
	}
}

// TestPurgeMatchingDuringLoadNotReinserted is the epoch-retention variant
// of TestPurgeDuringLoadNotReinserted: a selective purge must also block
// loads that were in flight when it ran, even ones whose key the predicate
// would have spared — their data may predate the epoch flip that prompted
// the purge.
func TestPurgeMatchingDuringLoadNotReinserted(t *testing.T) {
	c := New[[]byte](1<<20, 0, byteSize)
	inLoad := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := c.GetOrLoad(ctx, "1\x00photo", func(context.Context) ([]byte, error) {
			close(inLoad)
			<-release
			return []byte("old-epoch"), nil
		})
		if err != nil || string(v) != "old-epoch" {
			t.Errorf("loader's caller got %q, %v", v, err)
		}
	}()
	<-inLoad
	c.PurgeMatching(func(key string) bool { return false }) // spares everything…
	close(release)
	<-done
	// …yet the in-flight load still must not insert: its bytes were
	// computed before the purge's cutoff.
	if c.Contains([]byte("1\x00photo")) {
		t.Error("load in flight across PurgeMatching was inserted")
	}
}

// TestDeleteGroupSparesOtherLoads: deleting photo A removes A's entries
// and blocks A's in-flight load from inserting, while B's load, in flight
// across the same delete, is cached when it lands.
func TestDeleteGroupSparesOtherLoads(t *testing.T) {
	c := New[[]byte](1<<20, 0, byteSize)
	c.Put("1\x00A\x00size=small", []byte("a-small"))
	c.Put("1\x00AB\x00", []byte("other"))
	inLoad := make(chan struct{}, 2)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for _, key := range []string{"1\x00A\x00", "1\x00B\x00"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrLoad(ctx, key, func(context.Context) ([]byte, error) {
				inLoad <- struct{}{}
				<-release
				return []byte(key), nil
			})
			if err != nil || string(v) != key {
				t.Errorf("load of %q got %q, %v", key, v, err)
			}
		}()
	}
	<-inLoad
	<-inLoad
	c.DeleteGroup("A")
	close(release)
	wg.Wait()
	for key, want := range map[string]bool{
		"1\x00A\x00size=small": false, // deleted
		"1\x00A\x00":           false, // loading across the delete
		"1\x00B\x00":           true,  // another photo's load
		"1\x00AB\x00":          true,  // another photo sharing a prefix
	} {
		if got := c.Contains([]byte(key)); got != want {
			t.Errorf("Contains(%q) = %v after DeleteGroup(A), want %v", key, got, want)
		}
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 0 {
		t.Errorf("stats after DeleteGroup: %+v", st)
	}
	checkIndex(t, c)
	if c.mu.RLock(); c.groups["A"] != nil {
		t.Error("A's group record outlived its entries and loads")
	}
	c.mu.RUnlock()
	// The group's index went with its last entry and load; a new load of A
	// inserts again.
	c.GetOrLoad(ctx, "1\x00A\x00", func(context.Context) ([]byte, error) { return []byte("again"), nil })
	if !c.Contains([]byte("1\x00A\x00")) {
		t.Error("load of A after the delete was not cached")
	}
}

// TestPutDuringLoadKeepsGroupIndex: a Put of a key whose load is in flight
// leaves the loaded value, when it lands, indexed under the key's group, so
// a later DeleteGroup still finds it.
func TestPutDuringLoadKeepsGroupIndex(t *testing.T) {
	c := New[[]byte](1<<20, 0, byteSize)
	const key = "1\x00A\x00"
	inLoad := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrLoad(ctx, key, func(context.Context) ([]byte, error) {
			close(inLoad)
			<-release
			return []byte("loaded"), nil
		})
	}()
	<-inLoad
	c.Put(key, []byte("put"))
	close(release)
	<-done
	checkIndex(t, c)
	c.DeleteGroup("A")
	if c.Contains([]byte(key)) {
		t.Error("DeleteGroup missed an entry a load replaced")
	}
}
