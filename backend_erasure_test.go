package p3

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// flakyStore is a race-safe kill switch around a SecretStore for erasure
// tests: the erasure store's GetSecret returns before all fetch goroutines
// finish, so the switch must be an atomic, and the optional extensions the
// scrubber relies on must be forwarded explicitly.
type flakyStore struct {
	inner SecretStore
	down  atomic.Bool
}

func (f *flakyStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	if f.down.Load() {
		return errors.New("shard down")
	}
	return f.inner.PutSecret(ctx, id, blob)
}

func (f *flakyStore) GetSecret(ctx context.Context, id string) ([]byte, error) {
	if f.down.Load() {
		return nil, errors.New("shard down")
	}
	return f.inner.GetSecret(ctx, id)
}

func (f *flakyStore) DeleteSecret(ctx context.Context, id string) error {
	if f.down.Load() {
		return errors.New("shard down")
	}
	if d, ok := f.inner.(SecretDeleter); ok {
		return d.DeleteSecret(ctx, id)
	}
	return nil
}

func (f *flakyStore) ListSecrets(ctx context.Context) ([]string, error) {
	if f.down.Load() {
		return nil, errors.New("shard down")
	}
	if l, ok := f.inner.(SecretLister); ok {
		return l.ListSecrets(ctx)
	}
	return nil, nil
}

// erasureCorpus writes a deterministic mixed-size corpus and returns it.
func erasureCorpus(t *testing.T, s *ErasureSecretStore, count int) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	corpus := map[string][]byte{}
	sizes := []int{0, 1, 31, 1024, 4096, 8192, 10000}
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("photo%04d", i)
		blob := make([]byte, sizes[i%len(sizes)])
		rng.Read(blob)
		corpus[id] = blob
		if err := s.PutSecret(storeCtx, id, blob); err != nil {
			t.Fatalf("put %q: %v", id, err)
		}
	}
	return corpus
}

// verifyCorpus asserts every blob reads back byte-identical.
func verifyCorpus(t *testing.T, s *ErasureSecretStore, corpus map[string][]byte, when string) {
	t.Helper()
	for id, want := range corpus {
		got, err := s.GetSecret(storeCtx, id)
		if err != nil {
			t.Fatalf("%s: Get %q: %v", when, id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Get %q = %d bytes, want %d, not byte-identical", when, id, len(got), len(want))
		}
	}
}

func TestErasureSecretStoreRoundTripAndOverhead(t *testing.T) {
	shards := make([]SecretStore, 6)
	for i := range shards {
		shards[i] = NewMemorySecretStore()
	}
	s, err := NewErasureSecretStore(shards)
	if err != nil {
		t.Fatal(err)
	}
	corpus := erasureCorpus(t, s, 21)
	verifyCorpus(t, s, corpus, "healthy")
	if _, err := s.GetSecret(storeCtx, "absent"); !IsNotFound(err) {
		t.Errorf("missing object err = %v, want NotFoundError", err)
	}

	// Storage overhead: for the 4-of-6 scheme, stored share bytes must stay
	// within 1.6x of the logical bytes on blobs big enough to amortize the
	// per-share headers (the acceptance bound for replacing 3x replication).
	var logical, stored int
	for id, blob := range corpus {
		if len(blob) < 4096 {
			continue
		}
		logical += len(blob)
		_, placement := s.placementFor(id)
		for i := 0; i < 6; i++ {
			raw, err := shards[placement[i]].GetSecret(storeCtx, shareKey(id, i))
			if err != nil {
				t.Fatalf("share %d of %q: %v", i, id, err)
			}
			stored += len(raw)
		}
	}
	if logical == 0 {
		t.Fatal("no large blobs in corpus")
	}
	if ratio := float64(stored) / float64(logical); ratio > 1.6 {
		t.Errorf("storage overhead %.3fx > 1.6x (stored %d, logical %d)", ratio, stored, logical)
	}
}

// faultSchemes are the layouts the shared fault tests run over, each on six
// shards: replication with two and three copies, and the default 4-of-6.
var faultSchemes = [][2]int{{1, 2}, {1, 3}, {DefaultErasureK, DefaultErasureN}}

// forEachScheme runs test once per fault scheme, as a subtest.
func forEachScheme(t *testing.T, test func(t *testing.T, k, n int)) {
	for _, kn := range faultSchemes {
		t.Run(fmt.Sprintf("%d-of-%d", kn[0], kn[1]), func(t *testing.T) { test(t, kn[0], kn[1]) })
	}
}

// flakyShards builds a k-of-n store over six memory shards behind kill
// switches.
func flakyShards(t *testing.T, k, n int) (*ErasureSecretStore, []*flakyStore) {
	t.Helper()
	backing := make([]*flakyStore, 6)
	shards := make([]SecretStore, 6)
	for i := range shards {
		backing[i] = &flakyStore{inner: NewMemorySecretStore()}
		shards[i] = backing[i]
	}
	s, err := NewErasureSecretStore(shards, WithErasureScheme(k, n))
	if err != nil {
		t.Fatal(err)
	}
	return s, backing
}

func TestErasureSecretStoreSurvivesAnyTwoShardKills(t *testing.T) {
	forEachScheme(t, func(t *testing.T, k, n int) {
		s, backing := flakyShards(t, k, n)
		corpus := erasureCorpus(t, s, 14)

		// A k-of-n store tolerates ANY n-k dead shards: every such subset of
		// the six (all 15 pairs for 4-of-6), every blob byte-identical.
		for down := 0; down < 1<<len(backing); down++ {
			if bits.OnesCount(uint(down)) != n-k {
				continue
			}
			for i := range backing {
				backing[i].down.Store(down&(1<<i) != 0)
			}
			verifyCorpus(t, s, corpus, fmt.Sprintf("shards %06b down", down))
		}
		for i := range backing {
			backing[i].down.Store(false)
		}
		if s.RepairStats().DegradedReads == 0 {
			t.Error("no degraded reads counted across the outages")
		}
		if s.RepairStats().LostObjects != 0 {
			t.Error("lost objects counted with recoverable outages only")
		}
	})
}

func TestErasureSecretStoreHintedHandoff(t *testing.T) {
	forEachScheme(t, func(t *testing.T, k, n int) {
		s, backing := flakyShards(t, k, n)
		_, placement := s.placementFor("hh")
		hinted := placement[n-1]

		// Write while one home shard is down: the write succeeds on the
		// others and the missed share parks as a hint.
		backing[hinted].down.Store(true)
		blob := bytes.Repeat([]byte("hinted"), 700)
		if err := s.PutSecret(storeCtx, "hh", blob); err != nil {
			t.Fatalf("put with one shard down: %v", err)
		}
		if st := s.RepairStats(); st.HintsParked != 1 {
			t.Fatalf("HintsParked = %d, want 1", st.HintsParked)
		}
		if got, err := s.GetSecret(storeCtx, "hh"); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("read during outage: %v", err)
		}

		// Revive and scrub: the parked share is delivered to its home shard.
		backing[hinted].down.Store(false)
		rep, err := s.ScrubOnce(storeCtx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.HintsDrained != 1 {
			t.Fatalf("HintsDrained = %d, want 1 (report %+v)", rep.HintsDrained, rep)
		}

		// The delivered share now carries reads: kill n-k OTHER home shards,
		// leaving only k alive including the revived one — reconstruction
		// needs its share.
		for _, shard := range placement[:n-k] {
			backing[shard].down.Store(true)
		}
		if got, err := s.GetSecret(storeCtx, "hh"); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("read after hint drain with %d shards down: %v", n-k, err)
		}
	})
}

func TestErasureSecretStoreDeleteTombstone(t *testing.T) {
	forEachScheme(t, func(t *testing.T, k, n int) {
		s, backing := flakyShards(t, k, n)
		if err := s.PutSecret(storeCtx, "gone", []byte("secret")); err != nil {
			t.Fatal(err)
		}

		// Delete while a home shard sleeps through it.
		_, placement := s.placementFor("gone")
		sleeper := placement[n-1]
		backing[sleeper].down.Store(true)
		if err := s.DeleteSecret(storeCtx, "gone"); err != nil {
			t.Fatalf("delete with one shard down: %v", err)
		}
		backing[sleeper].down.Store(false)

		// The revived shard still holds its stale share; the tombstones must
		// outvote it.
		if _, err := s.GetSecret(storeCtx, "gone"); !IsNotFound(err) {
			t.Fatalf("deleted object err = %v, want NotFoundError", err)
		}

		// A scrub propagates the tombstone over the stale share (a 1-of-r
		// read already did), so the delete survives even when ONLY the
		// revived shard is reachable.
		if _, err := s.ScrubOnce(storeCtx); err != nil {
			t.Fatal(err)
		}
		for i := range backing {
			backing[i].down.Store(i != sleeper)
		}
		if _, err := s.GetSecret(storeCtx, "gone"); !IsNotFound(err) {
			t.Errorf("after scrub, delete lost with only revived shard up: err = %v, want NotFoundError", err)
		}
		for i := range backing {
			backing[i].down.Store(false)
		}
	})
}

// TestErasureSecretStoreScrubPreservesNewerSharesOverTombstone is the
// regression drill for the scrubber destroying an acknowledged write:
// delete an object (tombstones everywhere), re-put it while two shards are
// down (their shares park as hints) and lose the hints to a restart, then
// scrub while two of the shards holding the NEW shares are down. The
// tombstones are older than the surviving sub-k new shares, and the
// scrubber must leave those shares alone — overwriting them would turn a
// degraded-but-recoverable write into a permanent loss while still inside
// the n-k fault budget.
func TestErasureSecretStoreScrubPreservesNewerSharesOverTombstone(t *testing.T) {
	backing := make([]*flakyStore, 6)
	shards := make([]SecretStore, 6)
	for i := range shards {
		backing[i] = &flakyStore{inner: NewMemorySecretStore()}
		shards[i] = backing[i]
	}
	s, err := NewErasureSecretStore(shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSecret(storeCtx, "re", []byte("first life")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSecret(storeCtx, "re"); err != nil {
		t.Fatal(err)
	}

	// Re-put while two shards sleep; their shares park as hints, which a
	// process restart then wipes.
	_, placement := s.placementFor("re")
	blob := bytes.Repeat([]byte("second life"), 200)
	backing[placement[0]].down.Store(true)
	backing[placement[1]].down.Store(true)
	if err := s.PutSecret(storeCtx, "re", blob); err != nil {
		t.Fatalf("re-put with two shards down: %v", err)
	}
	backing[placement[0]].down.Store(false)
	backing[placement[1]].down.Store(false)
	s.hints.clear()

	// Scrub while two shards holding new shares are down: the pass sees old
	// tombstones plus only 2 < k new shares, and must not touch the latter.
	backing[placement[2]].down.Store(true)
	backing[placement[3]].down.Store(true)
	if _, err := s.ScrubOnce(storeCtx); err != nil {
		t.Fatal(err)
	}
	backing[placement[2]].down.Store(false)
	backing[placement[3]].down.Store(false)

	// With every shard back, the k surviving shares reconstruct the re-put
	// blob, and a full-visibility scrub restores the two lost shares.
	if got, err := s.GetSecret(storeCtx, "re"); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("re-put object after partial-visibility scrub: %v", err)
	}
	rep, err := s.ScrubOnce(storeCtx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharesRepaired != 2 || rep.LostObjects != 0 {
		t.Fatalf("recovery scrub report %+v, want 2 repaired / 0 lost", rep)
	}
	backing[placement[4]].down.Store(true)
	backing[placement[5]].down.Store(true)
	if got, err := s.GetSecret(storeCtx, "re"); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("re-put object after recovery with two shards down: %v", err)
	}
}

// TestErasureSecretStoreDeleteQuorum pins the delete durability contract:
// n-k+1 tombstones make a delete stick, fewer make it fail loudly.
func TestErasureSecretStoreDeleteQuorum(t *testing.T) {
	backing := make([]*flakyStore, 6)
	shards := make([]SecretStore, 6)
	for i := range shards {
		backing[i] = &flakyStore{inner: NewMemorySecretStore()}
		shards[i] = backing[i]
	}
	s, err := NewErasureSecretStore(shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSecret(storeCtx, "q", []byte("quorum")); err != nil {
		t.Fatal(err)
	}

	// Four shards down leaves only 2 < n-k+1 = 3 reachable tombstone slots:
	// the delete must refuse to claim success.
	for i := 0; i < 4; i++ {
		backing[i].down.Store(true)
	}
	if err := s.DeleteSecret(storeCtx, "q"); err == nil {
		t.Error("delete claimed success with only 2/6 tombstones durable")
	}

	// Three down is exactly the quorum — the outer edge of the contract.
	backing[3].down.Store(false)
	if err := s.DeleteSecret(storeCtx, "q"); err != nil {
		t.Fatalf("delete with quorum reachable: %v", err)
	}
	for i := range backing {
		backing[i].down.Store(false)
	}
	if _, err := s.GetSecret(storeCtx, "q"); !IsNotFound(err) {
		t.Errorf("deleted object err = %v, want NotFoundError", err)
	}
}

// TestErasureSecretStoreConcurrentPutsSameID hammers one id from many
// goroutines while others read it: writers must serialize so the final
// stripe is one complete epoch, never an unreadable interleaving where no
// epoch keeps k shares, and a 1-of-r read-repair racing the writers must
// never put an older copy back over a newer one.
func TestErasureSecretStoreConcurrentPutsSameID(t *testing.T) {
	forEachScheme(t, func(t *testing.T, k, n int) {
		shards := make([]SecretStore, 6)
		for i := range shards {
			shards[i] = NewMemorySecretStore()
		}
		s, err := NewErasureSecretStore(shards, WithErasureScheme(k, n))
		if err != nil {
			t.Fatal(err)
		}
		const writers, readers = 8, 4
		blobs := make([][]byte, writers)
		isBlob := func(got []byte) bool {
			for _, b := range blobs {
				if bytes.Equal(got, b) {
					return true
				}
			}
			return false
		}
		for w := range blobs {
			blobs[w] = bytes.Repeat([]byte{byte('a' + w)}, 2048)
		}
		var wg, rg sync.WaitGroup
		done := make(chan struct{})
		for r := 0; r < readers; r++ {
			rg.Add(1)
			go func() {
				defer rg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if got, err := s.GetSecret(storeCtx, "race"); err == nil && !isBlob(got) {
						t.Errorf("concurrent read returned %d bytes matching no writer's blob", len(got))
						return
					}
				}
			}()
		}
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := s.PutSecret(storeCtx, "race", blobs[w]); err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
			}(w)
		}
		wg.Wait()
		close(done)
		rg.Wait()

		// The last acknowledged write holds every slot: each home slot
		// carries the newest epoch.
		got, err := s.GetSecret(storeCtx, "race")
		if err != nil {
			t.Fatalf("read after concurrent puts: %v", err)
		}
		if !isBlob(got) {
			t.Fatalf("read returned %d bytes matching no writer's blob", len(got))
		}
		lay, placement := s.placementFor("race")
		var epochs []uint64
		for i, shard := range placement {
			raw, err := lay.shards[shard].GetSecret(storeCtx, shareKey("race", i))
			if err != nil {
				t.Fatalf("slot %d: %v", i, err)
			}
			epochs = append(epochs, recordEpochOf(raw))
		}
		for _, e := range epochs {
			if e != epochs[0] {
				t.Fatalf("slot epochs %v after every write returned, want one epoch", epochs)
			}
		}
		rep, err := s.ScrubOnce(storeCtx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.LostObjects != 0 {
			t.Fatalf("scrub counts %d lost objects after concurrent same-id puts", rep.LostObjects)
		}
	})
}

func TestErasureSecretStoreScrubRepairsCorruptShare(t *testing.T) {
	mems := make([]*MemorySecretStore, 6)
	shards := make([]SecretStore, 6)
	for i := range shards {
		mems[i] = NewMemorySecretStore()
		shards[i] = mems[i]
	}
	s, err := NewErasureSecretStore(shards)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("rot"), 1500)
	if err := s.PutSecret(storeCtx, "bitrot", blob); err != nil {
		t.Fatal(err)
	}

	// Flip one byte of share 0 in place, keeping a pristine copy.
	key := shareKey("bitrot", 0)
	lay, placement := s.placementFor("bitrot")
	m := lay.shards[placement[0]].(*MemorySecretStore)
	m.mu.Lock()
	pristine := append([]byte(nil), m.blobs[key]...)
	m.blobs[key][len(m.blobs[key])/2] ^= 0x40
	m.mu.Unlock()

	// Reads survive the rotten share (checksum rejects it, parity covers).
	if got, err := s.GetSecret(storeCtx, "bitrot"); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("read with corrupt share: %v", err)
	}

	// The scrubber detects and repairs it — byte-identical to the original,
	// because re-encoding at the same epoch is deterministic.
	rep, err := s.ScrubOnce(storeCtx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharesCorrupt != 1 || rep.SharesRepaired != 1 {
		t.Fatalf("scrub report %+v, want 1 corrupt / 1 repaired", rep)
	}
	m.mu.RLock()
	repaired := append([]byte(nil), m.blobs[key]...)
	m.mu.RUnlock()
	if !bytes.Equal(repaired, pristine) {
		t.Error("repaired share differs from the original")
	}

	// A second pass finds nothing to do.
	rep, err = s.ScrubOnce(storeCtx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharesMissing != 0 || rep.SharesCorrupt != 0 || rep.SharesRepaired != 0 {
		t.Errorf("second scrub not idle: %+v", rep)
	}
}

// TestErasureSecretStoreScrubRestoresWipedShard is the crash-style drill:
// a whole disk shard loses its contents mid-run; reads keep working
// through the outage, and repair rebuilds the shard — the scrub pass, or
// for replicas the reads themselves.
func TestErasureSecretStoreScrubRestoresWipedShard(t *testing.T) {
	forEachScheme(t, func(t *testing.T, k, n int) {
		dir := t.TempDir()
		backing := make([]*flakyStore, 6)
		shards := make([]SecretStore, 6)
		for i := range shards {
			disk, err := NewDiskSecretStore(filepath.Join(dir, fmt.Sprintf("shard%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			backing[i] = &flakyStore{inner: disk}
			shards[i] = backing[i]
		}
		s, err := NewErasureSecretStore(shards, WithErasureScheme(k, n))
		if err != nil {
			t.Fatal(err)
		}
		corpus := erasureCorpus(t, s, 10)

		// Wipe shard 4's blobs on disk — bit-for-bit loss of one store.
		shard4 := backing[4].inner.(*DiskSecretStore)
		wiped, err := filepath.Glob(filepath.Join(shard4.Dir(), "*"+blobSuffix))
		if err != nil || len(wiped) == 0 {
			t.Fatalf("nothing to wipe on shard 4 (%v)", err)
		}
		for _, f := range wiped {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}

		// Serving never blinks: the wiped shard just degrades reads.
		verifyCorpus(t, s, corpus, "during wipe")

		if _, err := s.ScrubOnce(storeCtx); err != nil {
			t.Fatal(err)
		}
		if st := s.RepairStats(); st.SharesMissing != uint64(len(wiped)) || st.SharesRepaired != uint64(len(wiped)) {
			t.Fatalf("repair stats %+v, want %d missing and repaired", st, len(wiped))
		}
		if got, err := shard4.Len(); err != nil || got != len(wiped) {
			t.Fatalf("shard 4 holds %d blobs after scrub (err %v), want %d", got, err, len(wiped))
		}

		// The rebuilt shard is load-bearing again: lose n-k other shards.
		for i := 0; i < n-k; i++ {
			backing[i].down.Store(true)
		}
		verifyCorpus(t, s, corpus, "after repair with other shards down")
	})
}

func TestErasureSecretStoreRebalance(t *testing.T) {
	forEachScheme(t, func(t *testing.T, k, n int) {
		old := make([]SecretStore, 6)
		for i := range old {
			old[i] = NewMemorySecretStore()
		}
		s, err := NewErasureSecretStore(old, WithErasureScheme(k, n))
		if err != nil {
			t.Fatal(err)
		}
		corpus := erasureCorpus(t, s, 12)

		// Swap the last two shards for fresh stores (a planned leave + join).
		fresh := []SecretStore{NewMemorySecretStore(), NewMemorySecretStore()}
		newShards := append(append([]SecretStore{}, old[:4]...), fresh...)
		if err := s.Rebalance(storeCtx, newShards); err != nil {
			t.Fatal(err)
		}
		verifyCorpus(t, s, corpus, "after rebalance")

		// The replacement shards carry real load and the departed shards were
		// drained of their copies.
		for i, f := range fresh {
			if ids, _ := f.(*MemorySecretStore).ListSecrets(storeCtx); len(ids) == 0 {
				t.Errorf("replacement shard %d holds nothing after rebalance", i)
			}
		}
		for i := 4; i < 6; i++ {
			if ids, _ := old[i].(*MemorySecretStore).ListSecrets(storeCtx); len(ids) != 0 {
				t.Errorf("departed shard %d still holds %d shares", i, len(ids))
			}
		}
	})
}

func TestErasureSecretStoreValidation(t *testing.T) {
	six := make([]SecretStore, 6)
	for i := range six {
		six[i] = NewMemorySecretStore()
	}
	if _, err := NewErasureSecretStore(six[:4]); err == nil {
		t.Error("4 shards accepted for a 6-share scheme")
	}
	if _, err := NewErasureSecretStore(six, WithErasureScheme(6, 6)); err == nil {
		t.Error("k == n accepted")
	}
	if _, err := NewErasureSecretStore(six, WithErasureScheme(0, 3)); err == nil {
		t.Error("k == 0 accepted")
	}
	// n >= 2k lets two epochs hold k slots each, so a first-k-wins read
	// could assemble a superseded write; such schemes must be rejected.
	if _, err := NewErasureSecretStore(six, WithErasureScheme(2, 4)); err == nil {
		t.Error("2-of-4 accepted (n = 2k)")
	}
	if _, err := NewErasureSecretStore(six, WithErasureScheme(2, 6)); err == nil {
		t.Error("2-of-6 accepted (n > 2k)")
	}
	if s, err := NewErasureSecretStore(six[:3], WithErasureScheme(2, 3)); err != nil || s == nil {
		t.Errorf("2-of-3 over 3 shards rejected: %v", err)
	}
}

func TestShareKeyRoundTrip(t *testing.T) {
	for _, id := range []string{"plain", "", "with-dash-4", "sp ace/slash\x00nul", "es1-tricky-7"} {
		for _, idx := range []int{0, 5, 254} {
			key := shareKey(id, idx)
			gotID, gotIdx, ok := parseShareKey(key)
			if !ok || gotID != id || gotIdx != idx {
				t.Errorf("parseShareKey(shareKey(%q, %d)) = %q, %d, %v", id, idx, gotID, gotIdx, ok)
			}
		}
	}
	if _, _, ok := parseShareKey("unrelated-key"); ok {
		t.Error("foreign key parsed as share key")
	}
	if _, _, ok := parseShareKey("es1-!!!-3"); ok {
		t.Error("bad base64 parsed as share key")
	}
}
