package similarity

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"p3/internal/dataset"
	"p3/internal/jpegx"
)

// bruteForce is the oracle for BK-tree queries: scan every indexed hash.
func bruteForce(entries map[string]Hash, h Hash, maxDist int) []Match {
	var out []Match
	for id, eh := range entries {
		if d := Distance(eh, h); d <= maxDist {
			out = append(out, Match{ID: id, Hash: eh.String(), Distance: d})
		}
	}
	sortMatches(out)
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Distance != ms[j].Distance {
			return ms[i].Distance < ms[j].Distance
		}
		return ms[i].ID < ms[j].ID
	})
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// clusteredHash draws hashes in loose clusters so queries see a mix of
// tiny and moderate distances, not just the ~32-bit spread of uniform
// random pairs. That exercises the BK-tree's edge pruning on both sides.
func clusteredHash(rng *rand.Rand, centers []Hash) Hash {
	h := centers[rng.Intn(len(centers))]
	for flips := rng.Intn(12); flips > 0; flips-- {
		h ^= 1 << uint(rng.Intn(64))
	}
	return h
}

// TestQueryMatchesBruteForceOracle is the index's core correctness
// property: for every radius, the BK-tree returns exactly the set the
// exhaustive scan returns — nothing pruned that shouldn't be, nothing
// extra.
func TestQueryMatchesBruteForceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	centers := make([]Hash, 8)
	for i := range centers {
		centers[i] = Hash(rng.Uint64())
	}
	ix := NewIndex()
	defer ix.Close()
	entries := map[string]Hash{}
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("p-%03d", i)
		h := clusteredHash(rng, centers)
		entries[id] = h
		ix.Add(id, h)
	}
	if ix.Len() != len(entries) {
		t.Fatalf("Len %d, want %d", ix.Len(), len(entries))
	}
	for _, maxDist := range []int{0, 1, 2, 4, 8, 16, 32, 64} {
		for trial := 0; trial < 20; trial++ {
			var probe Hash
			if trial%2 == 0 {
				probe = clusteredHash(rng, centers) // near the data
			} else {
				probe = Hash(rng.Uint64()) // far from the data
			}
			got := ix.Query(probe, maxDist)
			want := bruteForce(entries, probe, maxDist)
			if !matchesEqual(got, want) {
				t.Fatalf("d=%d probe=%s: tree returned %d matches, oracle %d\n got: %v\nwant: %v",
					maxDist, probe, len(got), len(want), got, want)
			}
		}
	}
}

func TestRemoveAndReAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ix := NewIndex()
	defer ix.Close()
	entries := map[string]Hash{}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("p-%03d", i)
		h := Hash(rng.Uint64())
		entries[id] = h
		ix.Add(id, h)
	}
	// Remove half; the oracle comparison must still hold exactly.
	for i := 0; i < 200; i += 2 {
		id := fmt.Sprintf("p-%03d", i)
		ix.Remove(id)
		delete(entries, id)
	}
	if ix.Len() != len(entries) {
		t.Fatalf("Len %d after removals, want %d", ix.Len(), len(entries))
	}
	for trial := 0; trial < 10; trial++ {
		probe := Hash(rng.Uint64())
		if got, want := ix.Query(probe, 64), bruteForce(entries, probe, 64); !matchesEqual(got, want) {
			t.Fatalf("after removal: got %d matches, want %d", len(got), len(want))
		}
	}
	// Re-adding an ID under a new hash replaces the old position.
	ix.Add("p-001", ^entries["p-001"])
	entries["p-001"] = ^entries["p-001"]
	got := ix.Query(entries["p-001"], 0)
	if len(got) != 1 || got[0].ID != "p-001" {
		t.Fatalf("re-added id not found at new hash: %v", got)
	}
	if h, ok := ix.Hash("p-001"); !ok || h != entries["p-001"] {
		t.Fatalf("Hash(p-001) = %v,%v after re-add", h, ok)
	}
	// Removing a never-added ID is a no-op.
	ix.Remove("no-such-id")
	if ix.Len() != len(entries) {
		t.Fatal("Remove of unknown id changed Len")
	}
}

func TestQueryIDExcludesSelf(t *testing.T) {
	ix := NewIndex()
	defer ix.Close()
	ix.Add("a", 0x0f0f)
	ix.Add("b", 0x0f0f) // exact duplicate of a
	ix.Add("c", 0x0f0e) // 1 bit away

	ms, ok := ix.QueryID("a", 2)
	if !ok {
		t.Fatal("QueryID(a) reported unindexed")
	}
	ids := map[string]int{}
	for _, m := range ms {
		ids[m.ID] = m.Distance
	}
	if _, self := ids["a"]; self {
		t.Fatal("QueryID returned the probe itself")
	}
	if d, okB := ids["b"]; !okB || d != 0 {
		t.Fatalf("duplicate b: got %v (present=%v), want distance 0", d, okB)
	}
	if d, okC := ids["c"]; !okC || d != 1 {
		t.Fatalf("near-dup c: got %v (present=%v), want distance 1", d, okC)
	}
	if _, ok := ix.QueryID("unknown", 2); ok {
		t.Fatal("QueryID(unknown) claimed indexed")
	}
}

// TestConcurrentIngestAndQuery hammers Enqueue/Add/Query/Remove/Flush
// from many goroutines (run under -race) and then checks the final index
// against the oracle.
func TestConcurrentIngestAndQuery(t *testing.T) {
	tiny := encodeJPEG(t, dataset.Natural(1, 16, 16), 90)
	ix := NewIndex(WithWorkers(4), WithQueueDepth(16))
	defer ix.Close()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				switch rng.Intn(5) {
				case 0, 1:
					ix.Add(id, Hash(rng.Uint64()))
				case 2:
					ix.Query(Hash(rng.Uint64()), 10)
				case 3:
					ix.Remove(fmt.Sprintf("w%d-%d", rng.Intn(workers), rng.Intn(100)))
				case 4:
					ix.Enqueue(fmt.Sprintf("w%d-%d", rng.Intn(workers), rng.Intn(100)), tiny)
				}
			}
		}(w)
	}
	wg.Wait()
	ix.Flush()
	ix.mu.RLock()
	if n := len(ix.queued); n != 0 {
		t.Errorf("%d ingests still pending after Flush", n)
	}
	ix.mu.RUnlock()
	// The index must still answer exactly: rebuild the oracle from Hash().
	entries := map[string]Hash{}
	for w := 0; w < workers; w++ {
		for i := 0; i < 100; i++ {
			id := fmt.Sprintf("w%d-%d", w, i)
			if h, ok := ix.Hash(id); ok {
				entries[id] = h
			}
		}
	}
	if ix.Len() != len(entries) {
		t.Fatalf("Len %d, oracle %d", ix.Len(), len(entries))
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		probe := Hash(rng.Uint64())
		if got, want := ix.Query(probe, 16), bruteForce(entries, probe, 16); !matchesEqual(got, want) {
			t.Fatalf("post-hammer query diverges from oracle: %d vs %d matches", len(got), len(want))
		}
	}
}

func TestEnqueueAfterCloseIsNoOp(t *testing.T) {
	ix := NewIndex(WithWorkers(2))
	ix.Close()
	ix.Enqueue("late", []byte("whatever")) // must not panic or deadlock
	ix.Flush()
	if ix.Len() != 0 {
		t.Fatal("Enqueue after Close ingested")
	}
}

func TestEnqueueIngestsRealJPEGs(t *testing.T) {
	ix := NewIndex(WithWorkers(2))
	defer ix.Close()
	ix.Enqueue("bad", []byte("not a jpeg"))
	ix.Flush()
	if ix.Len() != 0 {
		t.Fatal("undecodable enqueue was indexed")
	}
	st := ix.Stats()
	if st.IngestErrors != 1 {
		t.Fatalf("ingest errors %d, want 1", st.IngestErrors)
	}
}

// bigJPEG is a 1600×1200 photo whose hash keeps an ingest worker busy for
// milliseconds, built once for the tests that queue work behind it. Its
// content does not matter, so it is a cheap diagonal ramp.
var bigJPEG = sync.OnceValue(func() []byte {
	const w, h = 1600, 1200
	img := &jpegx.PlanarImage{Width: w, Height: h, Planes: [][]float64{
		make([]float64, w*h), make([]float64, w*h), make([]float64, w*h)}}
	for i := range img.Planes[0] {
		img.Planes[0][i] = float64((i%w + i/w) % 256)
		img.Planes[1][i], img.Planes[2][i] = 128, 128
	}
	coeffs, err := img.ToCoeffs(90, jpegx.Sub420)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// TestRemoveCancelsQueuedIngest: a Remove that lands while the id's ingest
// is still queued behind another must keep the id out of the index once the
// worker gets to it, or a deleted photo comes back as a ghost.
func TestRemoveCancelsQueuedIngest(t *testing.T) {
	big := bigJPEG()
	small := encodeJPEG(t, dataset.Natural(2, 64, 48), 90)
	ix := NewIndex(WithWorkers(1))
	defer ix.Close()
	ix.Enqueue("a", big) // keeps the one worker busy
	ix.Enqueue("b", small)
	ix.Remove("b")
	ix.Flush()
	if h, ok := ix.Hash("b"); ok {
		t.Fatalf("removed id b indexed by its queued ingest (hash %s)", h)
	}
	if _, ok := ix.Hash("a"); !ok {
		t.Fatal("id a missing after Flush")
	}
	if ix.Len() != 1 {
		t.Fatalf("Len %d, want 1", ix.Len())
	}
}

// TestReEnqueueKeepsLatestHash: when an id is enqueued again before its
// first ingest finished, the later photo's hash is the one indexed, even
// when the earlier (larger) one finishes last.
func TestReEnqueueKeepsLatestHash(t *testing.T) {
	big := bigJPEG()
	small := encodeJPEG(t, dataset.Natural(4, 64, 48), 90)
	want, err := PHash(small)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(WithWorkers(2))
	defer ix.Close()
	ix.Enqueue("x", big)
	ix.Enqueue("x", small)
	ix.Flush()
	if got, ok := ix.Hash("x"); !ok || got != want {
		t.Fatalf("Hash(x) = %s, %v; want the later photo's %s", got, ok, want)
	}
}
