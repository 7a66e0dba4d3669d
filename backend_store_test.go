package p3

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p3/internal/psp"
)

var storeCtx = context.Background()

func TestDiskSecretStoreRoundtrip(t *testing.T) {
	s, err := NewDiskSecretStore(filepath.Join(t.TempDir(), "secrets"))
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("sealed bytes")
	if err := s.PutSecret(storeCtx, "p00000001", blob); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetSecret(storeCtx, "p00000001")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("GetSecret = %q, %v", got, err)
	}
	// Overwrite is atomic replace.
	if err := s.PutSecret(storeCtx, "p00000001", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetSecret(storeCtx, "p00000001"); string(got) != "v2" {
		t.Errorf("after overwrite: %q", got)
	}
	if err := s.DeleteSecret(storeCtx, "p00000001"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetSecret(storeCtx, "p00000001"); !IsNotFound(err) {
		t.Errorf("deleted blob err = %v, want NotFoundError", err)
	}
	if err := s.DeleteSecret(storeCtx, "p00000001"); err != nil {
		t.Errorf("double delete: %v", err)
	}
}

// TestDiskSecretStorePathSafety stores under hostile PSP-assigned IDs and
// verifies every blob stays a flat file inside the store directory.
func TestDiskSecretStorePathSafety(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "secrets")
	s, err := NewDiskSecretStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The last entry is longer than NAME_MAX allows base64-encoded; it must
	// land on the hash-named fallback, still one flat file.
	hostile := []string{"a/../../escape", "../escape", "/etc/passwd", "..", "a/b/c", "CON", ".hidden",
		strings.Repeat("long/", 80)}
	for i, id := range hostile {
		blob := []byte(fmt.Sprintf("blob %d", i))
		if err := s.PutSecret(storeCtx, id, blob); err != nil {
			t.Fatalf("Put %q: %v", id, err)
		}
		if got, err := s.GetSecret(storeCtx, id); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("Get %q = %q, %v", id, got, err)
		}
	}
	// Nothing may exist outside dir, and dir must contain only flat files.
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "secrets" {
		t.Fatalf("store escaped its directory: %v", entries)
	}
	inside, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One blob per ID, plus the ID sidecar of the hash-named one.
	if len(inside) != len(hostile)+1 {
		t.Fatalf("%d files for %d ids", len(inside), len(hostile))
	}
	for _, e := range inside {
		if e.IsDir() {
			t.Errorf("unexpected subdirectory %q", e.Name())
		}
	}
	listed, err := s.ListSecrets(storeCtx)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(listed)
	if want := slices.Sorted(slices.Values(hostile)); !slices.Equal(listed, want) {
		t.Errorf("ListSecrets = %q, want %q", listed, want)
	}
	if err := s.DeleteSecret(storeCtx, hostile[len(hostile)-1]); err != nil {
		t.Fatal(err)
	}
	if inside, _ := os.ReadDir(dir); len(inside) != len(hostile)-1 {
		t.Errorf("%d files left after deleting the hash-named blob, want %d", len(inside), len(hostile)-1)
	}
}

// TestDiskShardsListLongIDs: on disk shards, an object whose share key is
// too long for a filename (a hash-named blob) is still in the scrubber's
// inventory, so it is repaired, rebalanced and migrated like any other.
func TestDiskShardsListLongIDs(t *testing.T) {
	dir := t.TempDir()
	shards := make([]SecretStore, 3)
	for i := range shards {
		disk, err := NewDiskSecretStore(filepath.Join(dir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = disk
	}
	s, err := NewShardedSecretStore(shards, WithShardReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("L", 120)
	for _, id := range []string{"short", long} {
		if err := s.PutSecret(storeCtx, id, []byte("blob of "+id)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.ScrubOnce(storeCtx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != 2 {
		t.Errorf("scrub saw %d objects, want 2 (report %+v)", rep.Objects, rep)
	}
}

// TestDiskSecretStoreCrashSafety simulates a crash between the temp-file
// write and the rename: the partial blob must never become visible, and the
// store must recover cleanly.
func TestDiskSecretStoreCrashSafety(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "secrets")
	s, err := NewDiskSecretStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSecret(storeCtx, "id", []byte("committed v1")); err != nil {
		t.Fatal(err)
	}

	crash := errors.New("simulated crash mid-write")
	s.testCrashAfterWrite = func() error { return crash }
	if err := s.PutSecret(storeCtx, "id", []byte("torn v2")); !errors.Is(err, crash) {
		t.Fatalf("crashing put err = %v", err)
	}
	if err := s.PutSecret(storeCtx, "id2", []byte("torn new")); !errors.Is(err, crash) {
		t.Fatalf("crashing put err = %v", err)
	}
	s.testCrashAfterWrite = nil

	// The old blob survives untouched; the never-committed one is absent.
	if got, err := s.GetSecret(storeCtx, "id"); err != nil || string(got) != "committed v1" {
		t.Errorf("after crash, Get(id) = %q, %v; want old committed value", got, err)
	}
	if _, err := s.GetSecret(storeCtx, "id2"); !IsNotFound(err) {
		t.Errorf("partial blob visible after crash: err = %v", err)
	}

	// Reopening (the post-crash restart) sweeps stranded temp files — but
	// only clearly abandoned ones, so a fresh temp (possibly another live
	// instance's in-flight write on a shared directory) survives.
	if _, err := NewDiskSecretStore(dir); err != nil {
		t.Fatal(err)
	}
	fresh, _ := filepath.Glob(filepath.Join(dir, "put-*.tmp"))
	if len(fresh) == 0 {
		t.Error("fresh temp files were swept; a concurrent writer's rename would now fail")
	}
	// Age the strandings past the threshold: the next open discards them.
	old := time.Now().Add(-2 * time.Hour)
	for _, f := range fresh {
		if err := os.Chtimes(f, old, old); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := NewDiskSecretStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stale, _ := filepath.Glob(filepath.Join(dir, "put-*.tmp")); len(stale) != 0 {
		t.Errorf("stranded temp files survived reopen: %v", stale)
	}
	if err := s2.PutSecret(storeCtx, "id2", []byte("retried")); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.GetSecret(storeCtx, "id2"); err != nil || string(got) != "retried" {
		t.Errorf("retry after crash = %q, %v", got, err)
	}
}

// failingStore wraps a SecretStore, failing every call while down.
type failingStore struct {
	SecretStore
	down bool
}

func (f *failingStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	if f.down {
		return errors.New("shard down")
	}
	return f.SecretStore.PutSecret(ctx, id, blob)
}

func (f *failingStore) GetSecret(ctx context.Context, id string) ([]byte, error) {
	if f.down {
		return nil, errors.New("shard down")
	}
	return f.SecretStore.GetSecret(ctx, id)
}

func TestShardedSecretStoreSpreadsKeys(t *testing.T) {
	shards := []SecretStore{NewMemorySecretStore(), NewMemorySecretStore(), NewMemorySecretStore()}
	s, err := NewShardedSecretStore(shards)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%08d", i)
		if err := s.PutSecret(storeCtx, id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%08d", i)
		got, err := s.GetSecret(storeCtx, id)
		if err != nil || string(got) != id {
			t.Fatalf("Get %q = %q, %v", id, got, err)
		}
	}
	// Consistent hashing should land a meaningful share on every shard.
	for i, shard := range shards {
		m := shard.(*MemorySecretStore)
		m.mu.RLock()
		count := len(m.blobs)
		m.mu.RUnlock()
		if count < n/10 {
			t.Errorf("shard %d holds %d/%d blobs — distribution badly skewed", i, count, n)
		}
	}
	if _, err := s.GetSecret(storeCtx, "absent"); !IsNotFound(err) {
		t.Errorf("missing blob err = %v, want NotFoundError", err)
	}
}

func TestShardedSecretStoreReplicationSurvivesShardLoss(t *testing.T) {
	backing := []*failingStore{
		{SecretStore: NewMemorySecretStore()},
		{SecretStore: NewMemorySecretStore()},
		{SecretStore: NewMemorySecretStore()},
	}
	s, err := NewShardedSecretStore(
		[]SecretStore{backing[0], backing[1], backing[2]},
		WithShardReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%08d", i)
		if err := s.PutSecret(storeCtx, id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Any single shard down: every blob still readable from its replica.
	for down := range backing {
		backing[down].down = true
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("p%08d", i)
			got, err := s.GetSecret(storeCtx, id)
			if err != nil || string(got) != id {
				t.Fatalf("shard %d down: Get %q = %q, %v", down, id, got, err)
			}
		}
		backing[down].down = false
	}
}

func TestShardedSecretStoreReadRepair(t *testing.T) {
	primaryDown := &failingStore{SecretStore: NewMemorySecretStore()}
	other := &failingStore{SecretStore: NewMemorySecretStore()}
	s, err := NewShardedSecretStore([]SecretStore{primaryDown, other}, WithShardReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	// Pick an ID whose preferred (first) replica is shard 0: reads probe it
	// first, which is where read-repair can heal a missing copy.
	id := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("p%08d", i)
		if s.ring.placements(cand, 2)[0] == 0 {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("no id with shard 0 as primary in 1000 tries")
	}

	// Upload while the primary is down: the write lands on the replica only.
	primaryDown.down = true
	if err := s.PutSecret(storeCtx, id, []byte("blob")); err != nil {
		t.Fatalf("put with one shard down: %v", err)
	}
	primaryDown.down = false

	// First read probes the (empty) primary, falls through to the replica,
	// and heals the primary...
	if got, err := s.GetSecret(storeCtx, id); err != nil || string(got) != "blob" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// ...so afterwards both shards hold the blob and the read no longer
	// depends on the shard that served the repair.
	other.down = true
	if got, err := s.GetSecret(storeCtx, id); err != nil || string(got) != "blob" {
		t.Errorf("after read-repair, Get with original holder down = %q, %v", got, err)
	}
}

func TestShardedSecretStoreValidation(t *testing.T) {
	if _, err := NewShardedSecretStore(nil); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewShardedSecretStore([]SecretStore{NewMemorySecretStore()}, WithShardReplicas(2)); err == nil {
		t.Error("replicas > shards accepted")
	}
	if _, err := NewShardedSecretStore([]SecretStore{NewMemorySecretStore()}, WithShardReplicas(0)); err == nil {
		t.Error("zero replicas accepted")
	}
}

// TestHTTPBackendsEscapeIDs sends hostile IDs through the real HTTP
// backends against the real servers: the ID must stay one opaque key — no
// blob-namespace escape, no path-segment splitting — and round-trip intact.
func TestHTTPBackendsEscapeIDs(t *testing.T) {
	store := psp.NewBlobStore()
	srv := httptest.NewServer(store)
	defer srv.Close()
	client := NewHTTPSecretStore(srv.URL)

	for _, id := range []string{"a/../b", "../../x", "a b?c=d", "x%2Fy", "plain"} {
		blob := []byte("blob for " + id)
		if err := client.PutSecret(storeCtx, id, blob); err != nil {
			t.Fatalf("Put %q: %v", id, err)
		}
		if !store.Has(id) {
			t.Errorf("id %q not stored under its own name (namespace escape?)", id)
		}
		got, err := client.GetSecret(storeCtx, id)
		if err != nil || !bytes.Equal(got, blob) {
			t.Errorf("Get %q = %q, %v", id, got, err)
		}
		if err := client.DeleteSecret(storeCtx, id); err != nil {
			t.Errorf("Delete %q: %v", id, err)
		}
		if store.Has(id) {
			t.Errorf("id %q survived delete", id)
		}
	}

	// A traversal-shaped ID must not resolve to another blob's name.
	if err := client.PutSecret(storeCtx, "victim", []byte("safe")); err != nil {
		t.Fatal(err)
	}
	if err := client.PutSecret(storeCtx, "blob/../victim", []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	got, err := client.GetSecret(storeCtx, "victim")
	if err != nil || string(got) != "safe" {
		t.Errorf("traversal-shaped id clobbered another blob: %q, %v", got, err)
	}
}

func TestHTTPSecretStoreNotFoundTyped(t *testing.T) {
	srv := httptest.NewServer(psp.NewBlobStore())
	defer srv.Close()
	client := NewHTTPSecretStore(srv.URL)
	_, err := client.GetSecret(storeCtx, "absent")
	var nf *NotFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("err = %v, want *NotFoundError", err)
	}
	if nf.Kind != "secret" || nf.ID != "absent" {
		t.Errorf("NotFoundError = %+v", nf)
	}
}

// TestShardedSecretStoreDeleteSurvivesShardOutage is the resurrection
// regression: a DeleteSecret that misses a down replica used to be undone
// when that replica revived — read-repair copied the stale blob back
// everywhere. With tombstone records the delete wins and is itself
// repaired onto the revived shard.
func TestShardedSecretStoreDeleteSurvivesShardOutage(t *testing.T) {
	a := &failingStore{SecretStore: NewMemorySecretStore()}
	b := &failingStore{SecretStore: NewMemorySecretStore()}
	s, err := NewShardedSecretStore([]SecretStore{a, b}, WithShardReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	const id = "photo"
	if err := s.PutSecret(storeCtx, id, []byte("blob")); err != nil {
		t.Fatal(err)
	}

	// Delete while one replica sleeps: only the live replica sees it.
	a.down = true
	if err := s.DeleteSecret(storeCtx, id); err != nil {
		t.Fatalf("delete with one replica down: %v", err)
	}
	a.down = false

	// The revived replica still holds the stale blob. Without tombstones
	// this read would resurrect it; the tombstone must outvote it instead.
	if _, err := s.GetSecret(storeCtx, id); !IsNotFound(err) {
		t.Fatalf("deleted blob resurrected off revived replica: err = %v, want NotFoundError", err)
	}

	// That read repaired the tombstone onto the revived replica, so the
	// delete now survives losing the replica that originally recorded it.
	b.down = true
	if _, err := s.GetSecret(storeCtx, id); !IsNotFound(err) {
		t.Errorf("delete lost with original tombstone holder down: err = %v, want NotFoundError", err)
	}
	b.down = false
}

// rendezvousStore blocks every PutSecret until `enter` reaches zero — a
// barrier that only clears when all expected replica writes have started.
type rendezvousStore struct {
	SecretStore
	enter *sync.WaitGroup
}

func (r *rendezvousStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	r.enter.Done()
	r.enter.Wait()
	return r.SecretStore.PutSecret(ctx, id, blob)
}

// TestShardedSecretStorePutFansOutConcurrently is the sequential-write
// regression: replica writes used to run one after another, so a write
// latency was the sum over replicas. Two replicas that each block until
// the other's write has started deadlock under sequential fan-out and
// clear immediately under concurrent fan-out.
func TestShardedSecretStorePutFansOutConcurrently(t *testing.T) {
	var enter sync.WaitGroup
	enter.Add(2)
	s, err := NewShardedSecretStore([]SecretStore{
		&rendezvousStore{SecretStore: NewMemorySecretStore(), enter: &enter},
		&rendezvousStore{SecretStore: NewMemorySecretStore(), enter: &enter},
	}, WithShardReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.PutSecret(storeCtx, "id", []byte("blob")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PutSecret stuck: replica writes are not concurrent")
	}
}

// TestShardedSecretStoreRejectsCorruptReplica: a replica whose bytes rot on
// disk must not be served as the secret part — the MAC check in OpenSecret
// would then fail a photo whose healthy copy sits on the other shard. The
// checksum rejects the rotten copy, the other replica serves the read, and
// read-repair rewrites the bad slot.
func TestShardedSecretStoreRejectsCorruptReplica(t *testing.T) {
	mems := []*MemorySecretStore{NewMemorySecretStore(), NewMemorySecretStore()}
	s, err := NewShardedSecretStore([]SecretStore{mems[0], mems[1]}, WithShardReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	const id = "p00000007"
	blob := bytes.Repeat([]byte("sealed secret part "), 40)
	if err := s.PutSecret(storeCtx, id, blob); err != nil {
		t.Fatal(err)
	}

	// Flip the last byte of the copy on the preferred shard.
	m := mems[s.ring.placements(id, 2)[0]]
	keys, _ := m.ListSecrets(storeCtx)
	if len(keys) != 1 {
		t.Fatalf("preferred shard holds %d keys, want 1", len(keys))
	}
	m.mu.Lock()
	pristine := append([]byte(nil), m.blobs[keys[0]]...)
	m.blobs[keys[0]][len(pristine)-1] ^= 0x01
	m.mu.Unlock()

	got, err := s.GetSecret(storeCtx, id)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("read with a corrupt replica = %d bytes (equal %v), %v; want the healthy copy",
			len(got), bytes.Equal(got, blob), err)
	}
	m.mu.RLock()
	repaired := bytes.Equal(m.blobs[keys[0]], pristine)
	m.mu.RUnlock()
	if !repaired {
		t.Error("read-repair did not rewrite the corrupt replica")
	}
}

// gatedStore holds the first PutSecret after arming until released.
type gatedStore struct {
	SecretStore
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gatedStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.SecretStore.PutSecret(ctx, id, blob)
}

// TestShardedSecretStoreReadRepairKeepsNewerWrite lands a write between a
// read-repair's look at the replicas and its fix of the stale one. The
// repair holds the object's write lock, so the write waits for it and
// then overwrites both replicas; a repair without the lock would put the
// older copy back over the newer one.
func TestShardedSecretStoreReadRepairKeepsNewerWrite(t *testing.T) {
	a := &flakyStore{inner: NewMemorySecretStore()}
	bDown := &flakyStore{inner: NewMemorySecretStore()}
	b := &gatedStore{SecretStore: bDown, entered: make(chan struct{}), release: make(chan struct{})}
	s, err := NewShardedSecretStore([]SecretStore{a, b}, WithShardReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	const id = "p00000001"
	v1, v2 := []byte("first version"), []byte("second version")
	bDown.down.Store(true)
	if err := s.PutSecret(storeCtx, id, v1); err != nil {
		t.Fatal(err)
	}
	bDown.down.Store(false)
	s.hints.clear() // as after a restart: b's replica is simply missing

	b.armed.Store(true)
	readDone := make(chan error, 1)
	go func() {
		_, err := s.GetSecret(storeCtx, id)
		readDone <- err
	}()
	select {
	case <-b.entered: // the read is repairing b with v1
	case err := <-readDone:
		t.Fatalf("read returned (%v) without repairing b's missing replica", err)
	}
	putDone := make(chan error, 1)
	go func() { putDone <- s.PutSecret(storeCtx, id, v2) }()
	select {
	case err := <-putDone: // the write did not wait for the repair
		putDone <- err
	case <-time.After(200 * time.Millisecond):
	}
	close(b.release)
	if err := <-readDone; err != nil {
		t.Fatal(err)
	}
	if err := <-putDone; err != nil {
		t.Fatal(err)
	}

	// b must hold v2: with a down, it serves the read alone.
	a.down.Store(true)
	if got, err := s.GetSecret(storeCtx, id); err != nil || !bytes.Equal(got, v2) {
		t.Errorf("after a write raced read-repair, b serves %q, %v; want %q", got, err, v2)
	}
}

// seedLegacy writes an object the way the replicated store wrote it before
// it became the 1-of-r scheme, one record per replica in ring-preference
// order: an epoch-versioned record under the bare id, or before that the
// raw blob.
func seedLegacy(t *testing.T, s *ErasureSecretStore, shards []SecretStore, id string, recs ...[]byte) {
	t.Helper()
	for i, shard := range s.ring.placements(id, len(recs)) {
		if err := shards[shard].PutSecret(storeCtx, id, recs[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// assertNoBareKeys fails if any shard still holds a key that is not a
// share key — a pre-merge record the scrubber should have removed.
func assertNoBareKeys(t *testing.T, shards ...SecretStore) {
	t.Helper()
	for i, sh := range shards {
		keys, err := sh.(SecretLister).ListSecrets(storeCtx)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if _, _, ok := parseShareKey(key); !ok {
				t.Errorf("shard %d still holds bare key %q", i, key)
			}
		}
	}
}

// TestShardedSecretStoreReadsLegacyShards seeds every layout the
// pre-merge replicated store left behind and checks that one scrub pass
// moves each object into checksummed share slots, byte-identical, removes
// the bare records, and keeps deleted objects deleted.
func TestShardedSecretStoreReadsLegacyShards(t *testing.T) {
	shards := []SecretStore{NewMemorySecretStore(), NewMemorySecretStore(), NewMemorySecretStore()}
	s, err := NewShardedSecretStore(shards, WithShardReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	enveloped := bytes.Repeat([]byte("enveloped "), 30)
	raw := bytes.Repeat([]byte{0xc3, 0x5a}, 200)
	newer := []byte("the newer copy wins")
	seedLegacy(t, s, shards, "enveloped", encodeRecord(recordBlob, 100, enveloped), encodeRecord(recordBlob, 100, enveloped))
	seedLegacy(t, s, shards, "raw", raw, raw)
	seedLegacy(t, s, shards, "diverged", encodeRecord(recordBlob, 100, []byte("older")), encodeRecord(recordBlob, 200, newer))
	seedLegacy(t, s, shards, "deleted", encodeRecord(recordBlob, 100, raw), encodeRecord(recordTombstone, 200, nil))
	seedLegacy(t, s, shards, "unread", encodeRecord(recordBlob, 100, raw), encodeRecord(recordBlob, 100, raw))

	rep, err := s.ScrubOnce(storeCtx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != 5 || rep.LegacyRemaining != 0 || rep.LostObjects != 0 {
		t.Errorf("scrub report %+v, want 5 objects, nothing remaining or lost", rep)
	}
	assertNoBareKeys(t, shards...)

	want := map[string][]byte{"enveloped": enveloped, "raw": raw, "diverged": newer, "unread": raw}
	for id, blob := range want {
		got, err := s.GetSecret(storeCtx, id)
		if err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("legacy %s = %q, %v; want the original bytes", id, got, err)
		}
		for i, shard := range s.ring.placements(id, 2) {
			rec, err := shards[shard].GetSecret(storeCtx, shareKey(id, i))
			if err != nil {
				t.Fatalf("%s: slot %d not migrated: %v", id, i, err)
			}
			if f := parseShareBytes(i, id, rec); !f.valid {
				t.Fatalf("%s: slot %d holds no valid share", id, i)
			}
		}
	}
	if _, err := s.GetSecret(storeCtx, "deleted"); !IsNotFound(err) {
		t.Errorf("legacy object deleted by a newer tombstone = %v, want NotFoundError", err)
	}

	// Deleting a migrated object must hold across later scrubs.
	for _, id := range []string{"enveloped", "unread"} {
		if err := s.DeleteSecret(storeCtx, id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ScrubOnce(storeCtx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"deleted", "enveloped", "unread"} {
		if _, err := s.GetSecret(storeCtx, id); !IsNotFound(err) {
			t.Errorf("deleted legacy %s = %v, want NotFoundError", id, err)
		}
	}
}

// TestShardedSecretStoreMigratedLegacySurvivesReplicaLoss checks that after
// one scrub pass every legacy object is as redundant as a fresh write: it
// reads with either of its replica shards down.
func TestShardedSecretStoreMigratedLegacySurvivesReplicaLoss(t *testing.T) {
	flaky := make([]*flakyStore, 3)
	shards := make([]SecretStore, 3)
	for i := range flaky {
		flaky[i] = &flakyStore{inner: NewMemorySecretStore()}
		shards[i] = flaky[i]
	}
	s, err := NewShardedSecretStore(shards, WithShardReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("legacy%02d", i)
		want[id] = bytes.Repeat([]byte{byte(i)}, 100+i)
		rec := encodeRecord(recordBlob, uint64(100+i), want[id])
		if i%2 == 1 {
			rec = want[id] // the envelope-less layout
		}
		seedLegacy(t, s, shards, id, rec, rec)
	}
	if _, err := s.ScrubOnce(storeCtx); err != nil {
		t.Fatal(err)
	}
	for _, f := range flaky {
		f.down.Store(true)
		for id, blob := range want {
			if got, err := s.GetSecret(storeCtx, id); err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("%s with a replica shard down = %q, %v", id, got, err)
			}
		}
		f.down.Store(false)
	}
}

// TestShardedSecretStoreRebalanceMigratesLegacy rebalances stores holding
// only never-read legacy objects: every object must survive the move onto
// the new ring, and no shard, kept or departed, may keep a bare record.
func TestShardedSecretStoreRebalanceMigratesLegacy(t *testing.T) {
	for _, tc := range []struct {
		name string
		keep int // old shards kept in the new set
		add  int // fresh shards joining it
	}{
		{"grow 3 to 5", 3, 2},
		{"replace a shard", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := []SecretStore{NewMemorySecretStore(), NewMemorySecretStore(), NewMemorySecretStore()}
			s, err := NewShardedSecretStore(old, WithShardReplicas(2))
			if err != nil {
				t.Fatal(err)
			}
			want := map[string][]byte{}
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("photo%02d", i)
				want[id] = []byte(id + " sealed")
				rec := encodeRecord(recordBlob, 100, want[id])
				seedLegacy(t, s, old, id, rec, rec)
			}
			shards := slices.Clone(old[:tc.keep])
			for range tc.add {
				shards = append(shards, NewMemorySecretStore())
			}
			if err := s.Rebalance(storeCtx, shards); err != nil {
				t.Fatal(err)
			}
			for id, blob := range want {
				if got, err := s.GetSecret(storeCtx, id); err != nil || !bytes.Equal(got, blob) {
					t.Errorf("%s after rebalance = %q, %v", id, got, err)
				}
			}
			assertNoBareKeys(t, append(shards, old[tc.keep:]...)...)
			for _, departed := range old[tc.keep:] {
				if keys, _ := departed.(SecretLister).ListSecrets(storeCtx); len(keys) != 0 {
					t.Errorf("departed shard still holds %d records", len(keys))
				}
			}
		})
	}
}

// TestErasureSecretStoreLeavesForeignKeys checks that a k > 1 store, which
// never had a pre-merge layout, treats a bare key on its shards as another
// store's and leaves it alone.
func TestErasureSecretStoreLeavesForeignKeys(t *testing.T) {
	shards := make([]SecretStore, 6)
	for i := range shards {
		shards[i] = NewMemorySecretStore()
	}
	s, err := NewErasureSecretStore(shards, WithErasureScheme(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	foreign := encodeRecord(recordBlob, 100, []byte("someone else's"))
	if err := shards[0].PutSecret(storeCtx, "foreign", foreign); err != nil {
		t.Fatal(err)
	}
	corpus := erasureCorpus(t, s, 4)
	rep, err := s.ScrubOnce(storeCtx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != len(corpus) || rep.SharesRemoved != 0 {
		t.Errorf("scrub report %+v, want %d objects and nothing removed", rep, len(corpus))
	}
	if got, err := shards[0].GetSecret(storeCtx, "foreign"); err != nil || !bytes.Equal(got, foreign) {
		t.Errorf("foreign key after scrub = %q, %v; want it untouched", got, err)
	}
}

func TestMemorySecretStoreDelete(t *testing.T) {
	m := NewMemorySecretStore()
	if err := m.PutSecret(storeCtx, "id", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteSecret(storeCtx, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.GetSecret(storeCtx, "id"); !IsNotFound(err) {
		t.Errorf("err = %v, want NotFoundError", err)
	}
}
