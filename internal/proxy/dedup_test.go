package proxy

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"p3"
	"p3/internal/dataset"
	"p3/internal/dedup"
	"p3/internal/jpegx"
	"p3/internal/metrics"
	"p3/internal/psp"
	"p3/internal/similarity"
)

// jpegAt encodes a deterministic synthetic photo at a given quality, so
// the tests can mint exact duplicates (same seed, same quality) and
// near-duplicates (same seed, nearby quality).
func jpegAt(t testing.TB, seed int64, w, h, quality int) []byte {
	t.Helper()
	coeffs, err := dataset.Natural(seed, w, h).ToCoeffs(quality, jpegx.Sub420)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// diffBed is a full proxy stack whose photos backend is optionally
// wrapped in a dedup layer. The dedup-on and dedup-off beds share one
// key and serve one published epoch through byte-identical codec paths —
// the only difference is the middleware — which is what the differential
// test measures. The pair is built once and shared by every test in this
// file; all assertions on dedup counters are therefore deltas, never
// absolutes.
type diffBed struct {
	proxy *Proxy
	ded   *dedup.Store      // nil on the dedup-off bed
	sim   *similarity.Index // nil on the dedup-off bed
}

var (
	diffOnce   sync.Once
	diffOn     *diffBed
	diffOff    *diffBed
	diffSetErr error
)

func buildDiffBed(key p3.Key, withDedup bool) (*diffBed, error) {
	// Package-lifetime servers, deliberately not Closed: tied to the
	// shared fixture, not to any one test.
	pspSrv := httptest.NewServer(psp.NewServer(psp.FacebookLike()))
	stSrv := httptest.NewServer(psp.NewBlobStore())
	codec, err := p3.New(key)
	if err != nil {
		return nil, err
	}
	bed := &diffBed{}
	var photos p3.PhotoService = p3.NewHTTPPhotoService(pspSrv.URL)
	var opts []ProxyOption
	if withDedup {
		bed.ded = dedup.New(photos, dedup.WithRegistry(metrics.NewRegistry()))
		photos = bed.ded
		bed.sim = similarity.NewIndex(similarity.WithRegistry(metrics.NewRegistry()))
		opts = append(opts, WithSimilarity(bed.sim))
	}
	bed.proxy = New(codec, photos, p3.NewHTTPSecretStore(stSrv.URL), opts...)
	publishTruePipeline(bed.proxy, psp.FacebookLike())
	return bed, nil
}

// diffBeds returns the shared (dedup-on, dedup-off) pair.
func diffBeds(t *testing.T) (*diffBed, *diffBed) {
	t.Helper()
	diffOnce.Do(func() {
		key, err := p3.NewKey()
		if err != nil {
			diffSetErr = err
			return
		}
		if diffOn, diffSetErr = buildDiffBed(key, true); diffSetErr != nil {
			return
		}
		diffOff, diffSetErr = buildDiffBed(key, false)
	})
	if diffSetErr != nil {
		t.Fatalf("building differential beds: %v", diffSetErr)
	}
	return diffOn, diffOff
}

// TestDedupDifferentialByteIdentity is the differential gate: a proxy
// with the dedup middleware must serve byte-identical photos to one
// without it, for every photo in a duplicate-heavy corpus and across
// representative variants. Anything the dedup layer changes about served
// bytes is a bug this test catches.
func TestDedupDifferentialByteIdentity(t *testing.T) {
	on, off := diffBeds(t)
	st0 := on.ded.Stats()

	// 4 distinct photos, each uploaded 3 times: 12 logical photos, heavy
	// duplication for the dedup side.
	const distinct, copies = 4, 3
	type pair struct{ onID, offID string }
	var pairs []pair
	for s := 0; s < distinct; s++ {
		src := jpegAt(t, int64(100+s), 320, 240, 90)
		for c := 0; c < copies; c++ {
			onID, err := on.proxy.Upload(ctx, src)
			if err != nil {
				t.Fatalf("dedup-on upload seed %d copy %d: %v", s, c, err)
			}
			offID, err := off.proxy.Upload(ctx, src)
			if err != nil {
				t.Fatalf("dedup-off upload seed %d copy %d: %v", s, c, err)
			}
			pairs = append(pairs, pair{onID, offID})
		}
	}
	st := on.ded.Stats()
	if got := st.UniqueBlobs - st0.UniqueBlobs; got != distinct {
		t.Fatalf("corpus added %d unique blobs, want %d", got, distinct)
	}
	if got := st.LogicalPhotos - st0.LogicalPhotos; got != distinct*copies {
		t.Fatalf("corpus added %d logical photos, want %d", got, distinct*copies)
	}
	if got := st.DupHits - st0.DupHits; got < distinct*(copies-1) {
		t.Fatalf("corpus scored %d dup hits, want >= %d", got, distinct*(copies-1))
	}

	variants := []url.Values{
		{}, // full
		{"size": {"thumb"}},
		{"w": {"120"}, "h": {"90"}},
		{"crop": {"80,60,240,180"}, "w": {"120"}, "h": {"90"}},
	}
	for pi, pr := range pairs {
		for vi, v := range variants {
			a, err := on.proxy.Download(ctx, pr.onID, v)
			if err != nil {
				t.Fatalf("pair %d variant %d dedup-on download: %v", pi, vi, err)
			}
			b, err := off.proxy.Download(ctx, pr.offID, v)
			if err != nil {
				t.Fatalf("pair %d variant %d dedup-off download: %v", pi, vi, err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("pair %d variant %v: dedup-on bytes differ from dedup-off (%d vs %d bytes)",
					pi, v, len(a), len(b))
			}
		}
	}
	// Within the dedup bed: every duplicate of a photo serves the exact
	// bytes of its first copy (they share one provider blob).
	first, err := on.proxy.Download(ctx, pairs[0].onID, url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs[1:copies] {
		got, err := on.proxy.Download(ctx, pr.onID, url.Values{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, first) {
			t.Fatal("duplicate logical photo served different bytes than its twin")
		}
	}
	if err := on.ded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestProxyConcurrentDuplicateUploadsNoOrphan is the satellite
// regression at the proxy level: concurrent uploads of the same photo
// through the full Upload path (split, seal, store) must coalesce onto
// one public-part blob and leave nothing orphaned on the PSP.
func TestProxyConcurrentDuplicateUploadsNoOrphan(t *testing.T) {
	bed, _ := diffBeds(t)
	st0 := bed.ded.Stats()

	src := jpegAt(t, 55, 320, 240, 90)
	const racers = 8
	ids := make([]string, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = bed.proxy.Upload(ctx, src)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
	}
	st := bed.ded.Stats()
	if got := st.ProviderUploads - st0.ProviderUploads; got != 1 {
		t.Fatalf("%d provider uploads for one content, want 1 (orphaned public parts)", got)
	}
	if got := st.UniqueBlobs - st0.UniqueBlobs; got != 1 {
		t.Fatalf("racers added %d unique blobs, want 1", got)
	}
	for i, id := range ids {
		if _, err := bed.proxy.Download(ctx, id, url.Values{}); err != nil {
			t.Fatalf("racer %d photo %s undownloadable: %v", i, id, err)
		}
	}
	if err := bed.ded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteEndToEnd exercises Delete over HTTP: duplicates keep the
// shared blob alive until the last reference goes, deleted photos 404,
// and their twins keep serving.
func TestDeleteEndToEnd(t *testing.T) {
	bed, _ := diffBeds(t)
	srv := httptest.NewServer(bed.proxy)
	t.Cleanup(srv.Close)
	st0 := bed.ded.Stats()

	src := jpegAt(t, 66, 320, 240, 90)
	id1, err := bed.proxy.Upload(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := bed.proxy.Upload(ctx, src)
	if err != nil {
		t.Fatal(err)
	}

	httpDelete := func(id string) int {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/photo/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := httpDelete(id1); code != http.StatusNoContent {
		t.Fatalf("DELETE %s: status %d, want 204", id1, code)
	}
	// The deleted photo is gone; its duplicate still serves.
	if resp, err := http.Get(srv.URL + "/photo/" + id1); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET deleted photo: status %d, want 404", resp.StatusCode)
		}
	}
	if _, err := bed.proxy.Download(ctx, id2, url.Values{}); err != nil {
		t.Fatalf("twin photo broken by its duplicate's delete: %v", err)
	}
	if code := httpDelete(id2); code != http.StatusNoContent {
		t.Fatalf("DELETE %s: status %d, want 204", id2, code)
	}
	if code := httpDelete(id2); code != http.StatusNotFound {
		t.Fatalf("double DELETE: status %d, want 404", code)
	}
	st := bed.ded.Stats()
	if st.UniqueBlobs != st0.UniqueBlobs || st.LogicalPhotos != st0.LogicalPhotos {
		t.Fatalf("dedup state not restored after all deletes: %+v -> %+v", st0, st)
	}
	if err := bed.ded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSimilarHTTP drives GET /similar/{id} end to end: exact duplicates
// at distance 0, a re-encode within the default radius, an unrelated
// photo outside it, plus the error paths.
func TestSimilarHTTP(t *testing.T) {
	bed, _ := diffBeds(t)
	srv := httptest.NewServer(bed.proxy)
	t.Cleanup(srv.Close)

	dup := jpegAt(t, 200, 320, 240, 90)
	idA, err := bed.proxy.Upload(ctx, dup)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := bed.proxy.Upload(ctx, dup) // exact duplicate
	if err != nil {
		t.Fatal(err)
	}
	idNear, err := bed.proxy.Upload(ctx, jpegAt(t, 200, 320, 240, 84)) // re-encode
	if err != nil {
		t.Fatal(err)
	}
	idFar, err := bed.proxy.Upload(ctx, jpegAt(t, 201, 320, 240, 90)) // unrelated
	if err != nil {
		t.Fatal(err)
	}

	var out struct {
		ID      string             `json:"id"`
		D       int                `json:"d"`
		Matches []similarity.Match `json:"matches"`
	}
	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	if code := get("/similar/" + idA); code != http.StatusOK {
		t.Fatalf("GET /similar/%s: status %d", idA, code)
	}
	got := map[string]int{}
	for _, m := range out.Matches {
		got[m.ID] = m.Distance
	}
	if d, ok := got[idB]; !ok || d != 0 {
		t.Fatalf("exact duplicate %s: distance %d (present=%v), want 0", idB, d, ok)
	}
	if _, ok := got[idNear]; !ok {
		t.Fatalf("re-encode %s not within default radius; matches: %v", idNear, out.Matches)
	}
	if _, ok := got[idFar]; ok {
		t.Fatalf("unrelated photo %s matched within default radius", idFar)
	}
	if _, ok := got[idA]; ok {
		t.Fatal("query returned the photo itself")
	}
	// d=0 keeps only this content's exact duplicates (idB; idNear only if
	// the re-encode happened to hash identically, which seed 200 does not).
	if code := get("/similar/" + idA + "?d=0"); code != http.StatusOK {
		t.Fatalf("d=0 query: status %d", code)
	}
	if len(out.Matches) != 1 || out.Matches[0].ID != idB {
		t.Fatalf("d=0 matches %v, want exactly [%s]", out.Matches, idB)
	}
	for path, want := range map[string]int{
		"/similar/" + idA + "?d=banana": http.StatusBadRequest,
		"/similar/" + idA + "?d=65":     http.StatusBadRequest,
		"/similar/no-such-photo-id":     http.StatusNotFound,
	} {
		if code := get(path); code != want {
			t.Fatalf("GET %s: status %d, want %d", path, code, want)
		}
	}
	// A proxy without an index rejects the endpoint before touching
	// anything else, so an uncalibrated bare proxy suffices.
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	bare := New(codec, p3.NewHTTPPhotoService("http://unreachable.invalid"), p3.NewMemorySecretStore())
	if _, err := bare.Similar(ctx, "whatever-id", 4); err == nil {
		t.Fatal("Similar without an index succeeded")
	} else if code := statusFor(err); code != http.StatusBadRequest {
		t.Fatalf("Similar without index maps to %d, want 400", code)
	}
}

// TestDedupStatsSurfaceInProxyStats checks Stats() exposes the dedup and
// similarity blocks when configured (and the new op counters move).
func TestDedupStatsSurfaceInProxyStats(t *testing.T) {
	bed, _ := diffBeds(t)

	id, err := bed.proxy.Upload(ctx, jpegAt(t, 300, 320, 240, 90))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bed.proxy.Similar(ctx, id, 10); err != nil {
		t.Fatal(err)
	}
	if err := bed.proxy.Delete(ctx, id); err != nil {
		t.Fatal(err)
	}
	st := bed.proxy.Stats()
	if st.Dedup == nil {
		t.Fatal("Stats().Dedup nil with a dedup backend")
	}
	if st.Similarity == nil {
		t.Fatal("Stats().Similarity nil with an index attached")
	}
	if st.Similar.Count == 0 {
		t.Fatal("similar op counter did not move")
	}
	if st.Delete.Count == 0 {
		t.Fatal("delete op counter did not move")
	}
}
