package proxy

// Serving-layer tests: coalescing under concurrency, cache bounds, HTTP
// status mapping, partial-upload cleanup, and crop-coordinate rounding.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"p3"
	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/metrics"
	"p3/internal/psp"
)

// countingPhotos wraps the in-process PSP adapter with call counters and
// delete support.
type countingPhotos struct {
	s                *psp.Server
	uploads, fetches atomic.Int64
}

func (c *countingPhotos) UploadPhoto(_ context.Context, jpegBytes []byte) (string, error) {
	c.uploads.Add(1)
	return c.s.Upload(jpegBytes)
}

func (c *countingPhotos) UploadPhotoWithDims(_ context.Context, jpegBytes []byte) (string, int, int, error) {
	c.uploads.Add(1)
	return c.s.UploadWithDims(jpegBytes)
}

func (c *countingPhotos) FetchPhoto(_ context.Context, id string, v p3.PhotoVariant) ([]byte, error) {
	c.fetches.Add(1)
	q := v.Query()
	b, err := c.s.Photo(id, q.Get("size"), q.Get("crop"), q.Get("w"), q.Get("h"))
	if err != nil && errors.Is(err, psp.ErrNotFound) {
		return nil, &p3.NotFoundError{Kind: "photo", ID: id}
	}
	return b, err
}

func (c *countingPhotos) DeletePhoto(_ context.Context, id string) error {
	return c.s.Delete(id)
}

// countingStore wraps a SecretStore with counters and a failure switch.
type countingStore struct {
	inner      p3.SecretStore
	gets, puts atomic.Int64
	failPuts   bool
}

func (c *countingStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	c.puts.Add(1)
	if c.failPuts {
		return errors.New("blob store full")
	}
	return c.inner.PutSecret(ctx, id, blob)
}

func (c *countingStore) GetSecret(ctx context.Context, id string) ([]byte, error) {
	c.gets.Add(1)
	return c.inner.GetSecret(ctx, id)
}

// servingBed is an in-process testbed (no HTTP) with counters on both
// backends.
type servingBed struct {
	photos *countingPhotos
	store  *countingStore
	proxy  *Proxy
	key    p3.Key
}

func newServingBed(t *testing.T, opts ...ProxyOption) *servingBed {
	t.Helper()
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	bed := &servingBed{
		photos: &countingPhotos{s: psp.NewServer(psp.FlickrLike())},
		store:  &countingStore{inner: p3.NewMemorySecretStore()},
		key:    key,
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	bed.proxy = New(codec, bed.photos, bed.store, opts...)
	publishTruePipeline(bed.proxy, psp.FlickrLike())
	return bed
}

// TestConcurrentDownloadCoalescing is the acceptance stampede test: 50
// goroutines download one (id, variant) through a cold proxy, the backends
// see exactly one FetchPhoto and one GetSecret, and everyone receives bytes
// identical to an uncached reconstruction.
func TestConcurrentDownloadCoalescing(t *testing.T) {
	bed := newServingBed(t)
	jpegBytes, _ := photoJPEG(t, 31, 320, 240)
	id, err := bed.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}

	// The uncached reference: a separate cold proxy (same key, same
	// published epoch) reconstructs the same variant.
	codec2, err := p3.New(bed.key)
	if err != nil {
		t.Fatal(err)
	}
	other := New(codec2, bed.photos, bed.store)
	publishTruePipeline(other, psp.FlickrLike())
	reference, err := other.Download(ctx, id, url.Values{"size": {"small"}})
	if err != nil {
		t.Fatal(err)
	}

	bed.proxy.InvalidateCaches() // forget the upload warm: everyone is a cold reader
	fetches0, gets0 := bed.photos.fetches.Load(), bed.store.gets.Load()

	const n = 50
	results := make([][]byte, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = bed.proxy.Download(ctx, id, url.Values{"size": {"small"}})
		}(i)
	}
	close(start)
	wg.Wait()

	if got := bed.photos.fetches.Load() - fetches0; got != 1 {
		t.Errorf("backend saw %d FetchPhoto calls for %d concurrent downloads, want 1", got, n)
	}
	if got := bed.store.gets.Load() - gets0; got != 1 {
		t.Errorf("backend saw %d GetSecret calls for %d concurrent downloads, want 1", got, n)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("download %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], reference) {
			t.Fatalf("download %d returned different bytes than the uncached path", i)
		}
	}
	// Exactly one load ran; the other n-1 either joined it (coalesced) or,
	// if the loader finished before they were scheduled, hit the fresh
	// entry. The split between the two is scheduling-dependent.
	st := bed.proxy.Stats()
	if st.Variants.Misses != 1 || st.Variants.Hits+st.Variants.Coalesced != n-1 {
		t.Errorf("variant cache stats: %+v (want 1 miss, hits+coalesced = %d)", st.Variants, n-1)
	}
}

// TestSecretCacheBounded is the acceptance memory test: with a 1 MiB secret
// budget and 100 distinct photos' worth of secret parts flowing through,
// the cache evicts instead of growing.
func TestSecretCacheBounded(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	// A synthetic store: every ID resolves to a fresh 64 KiB blob, so 100
	// distinct photos mean ~6.4 MiB of traffic against a 1 MiB budget.
	const blobSize = 64 << 10
	store := p3.NewMemorySecretStore()
	for i := 0; i < 100; i++ {
		blob := bytes.Repeat([]byte{byte(i)}, blobSize)
		if err := store.PutSecret(ctx, fmt.Sprintf("p%08d", i), blob); err != nil {
			t.Fatal(err)
		}
	}
	p := New(codec, &countingPhotos{s: psp.NewServer(psp.FlickrLike())}, store,
		WithSecretCacheBytes(1<<20))
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("p%08d", i)
		blob, err := p.fetchSecret(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != blobSize || blob[0] != byte(i) {
			t.Fatalf("wrong blob for %s", id)
		}
	}
	st := p.Stats().Secrets
	if st.Bytes > 1<<20 {
		t.Errorf("secret cache holds %d bytes, budget is %d", st.Bytes, 1<<20)
	}
	if st.Entries > (1<<20)/blobSize {
		t.Errorf("secret cache holds %d entries, at most %d fit", st.Entries, (1<<20)/blobSize)
	}
	if st.Evictions == 0 {
		t.Error("no evictions observed despite 6.4 MiB through a 1 MiB budget")
	}
	if st.Misses != 100 {
		t.Errorf("misses = %d, want 100 (all distinct)", st.Misses)
	}
	// Re-fetching a recent ID hits; an evicted one misses and re-fetches.
	if _, err := p.fetchSecret(ctx, "p00000099"); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Secrets.Hits; got == 0 {
		t.Error("recent entry did not hit")
	}
}

// TestVariantCacheServesRepeats: a second identical download is served from
// memory — no backend traffic, byte-identical result — and recalibration
// invalidates it.
func TestVariantCacheServesRepeats(t *testing.T) {
	// A private registry so the calibration counter assertions below see
	// only this bed's passes, not every bed sharing metrics.Default.
	bed := newServingBed(t, WithMetricsRegistry(metrics.NewRegistry()))
	// Serve from the epoch a sweep publishes, so the forced flip below
	// re-identifies the same parameters and must reproduce the same bytes.
	if _, err := bed.proxy.Recalibrate(ctx, true); err != nil {
		t.Fatal(err)
	}
	jpegBytes, _ := photoJPEG(t, 33, 320, 240)
	id, err := bed.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	first, err := bed.proxy.Download(ctx, id, url.Values{"size": {"thumb"}})
	if err != nil {
		t.Fatal(err)
	}
	fetches := bed.photos.fetches.Load()
	// Equivalent query spellings share one cache entry via canonicalization.
	second, err := bed.proxy.Download(ctx, id, url.Values{"size": {"thumb"}, "ignored": {"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached variant differs from first reconstruction")
	}
	if got := bed.photos.fetches.Load() - fetches; got != 0 {
		t.Errorf("repeat download caused %d backend fetches, want 0", got)
	}
	if st := bed.proxy.Stats().Variants; st.Hits == 0 {
		t.Errorf("variant stats show no hit: %+v", st)
	}

	// An incremental recalibration probes the published parameters, finds
	// them still valid, and keeps the epoch — and with it the cache.
	epoch := bed.proxy.CalibrationEpoch()
	if _, err := bed.proxy.Calibrate(ctx); err != nil {
		t.Fatal(err)
	}
	if got := bed.proxy.Stats().Calibration; got.ProbeHits != 1 {
		t.Errorf("probe hits = %d after stable recalibration, want 1 (%+v)", got.ProbeHits, got)
	}
	if got := bed.proxy.CalibrationEpoch(); got != epoch {
		t.Errorf("epoch flipped %d → %d on a probe-confirmed recalibration", epoch, got)
	}
	if st := bed.proxy.Stats().Variants; st.Entries == 0 {
		t.Error("probe-confirmed recalibration dropped still-valid variants")
	}
	third, err := bed.proxy.Download(ctx, id, url.Values{"size": {"thumb"}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, third) {
		t.Error("post-probe download differs from pre-probe bytes")
	}

	// A forced recalibration must flip the epoch and retire old-epoch
	// entries; the hottest are pre-warmed under the new epoch, and since
	// the PSP didn't change, they come out byte-identical.
	out, err := bed.proxy.Recalibrate(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Flipped || out.Epoch != epoch+1 {
		t.Fatalf("forced recalibration outcome %+v, want flip to epoch %d", out, epoch+1)
	}
	if out.Warmed == 0 {
		t.Error("forced recalibration pre-warmed no variants")
	}
	fetches = bed.photos.fetches.Load()
	fourth, err := bed.proxy.Download(ctx, id, url.Values{"size": {"thumb"}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, fourth) {
		t.Error("post-flip download differs from pre-flip bytes despite unchanged PSP")
	}
	if got := bed.photos.fetches.Load() - fetches; got != 0 {
		t.Errorf("post-flip download of a pre-warmed variant caused %d backend fetches, want 0", got)
	}
	if got := bed.proxy.Stats().Calibration.WarmHits; got == 0 {
		t.Error("warm-hit counter still 0 after serving a pre-warmed variant")
	}

	// With pre-warming disabled, a forced flip leaves the cache cold.
	cold := newServingBed(t, WithWarmTopK(0), WithMetricsRegistry(metrics.NewRegistry()))
	if _, err := cold.proxy.Upload(ctx, jpegBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.proxy.Recalibrate(ctx, true); err != nil {
		t.Fatal(err)
	}
	if st := cold.proxy.Stats().Variants; st.Entries != 0 {
		t.Errorf("warm-topk=0 flip left %d variant entries, want 0", st.Entries)
	}
}

// TestServeHTTPStatusCodes pins the 400/404/502/503 mapping.
func TestServeHTTPStatusCodes(t *testing.T) {
	bed := newServingBed(t)
	jpegBytes, _ := photoJPEG(t, 35, 160, 120)
	id, err := bed.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(bed.proxy)
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/photo/" + id + "?size=small", http.StatusOK},
		{"/photo/p99999999?size=small", http.StatusNotFound}, // unknown photo: the PSP's miss, not its fault
		{"/photo/" + id + "?crop=1,2,3", http.StatusBadRequest},
		{"/photo/" + id + "?crop=1,2,3,x", http.StatusBadRequest},
		{"/photo/" + id + "?w=abc", http.StatusBadRequest},
		{"/photo/" + id + "?w=-4&h=5", http.StatusBadRequest},
		{"/photo/a/../b", http.StatusBadRequest}, // path-shaped ID rejected at the boundary
		{"/photo/", http.StatusBadRequest},
		{"/stats", http.StatusOK},
		{"/nope", http.StatusNotFound},
	} {
		if got := get(tc.path); got != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, got, tc.want)
		}
	}

	// Junk upload: the client's fault.
	resp, err := http.Post(srv.URL+"/upload", "image/jpeg", bytes.NewReader([]byte("not a jpeg")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk upload status %d, want 400", resp.StatusCode)
	}

	// Uncalibrated proxy: the proxy's own not-ready state, 503.
	codec2, _ := p3.New(bed.key)
	coldSrv := httptest.NewServer(New(codec2, bed.photos, bed.store))
	defer coldSrv.Close()
	resp2, err := http.Get(coldSrv.URL + "/photo/" + id + "?size=small")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("uncalibrated download status %d, want 503", resp2.StatusCode)
	}

	// Broken secret backend: a genuine 502.
	deadStore := p3.NewHTTPSecretStore("http://127.0.0.1:1") // nothing listens
	codec3, _ := p3.New(bed.key)
	broken := New(codec3, bed.photos, deadStore)
	publishTruePipeline(broken, psp.FlickrLike())
	brokenSrv := httptest.NewServer(broken)
	defer brokenSrv.Close()
	resp3, err := http.Get(brokenSrv.URL + "/photo/" + id + "?size=small")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadGateway {
		t.Errorf("dead blob store status %d, want 502", resp3.StatusCode)
	}
}

// grayPhotos is a hostile PSP: it serves every rendition of one photo with
// the chroma dropped, a single-component JPEG of the right dimensions.
type grayPhotos struct {
	memPhotos
	gray string // photo ID served in grayscale
}

func (g *grayPhotos) FetchPhoto(ctx context.Context, id string, v p3.PhotoVariant) ([]byte, error) {
	served, err := g.memPhotos.FetchPhoto(ctx, id, v)
	if err != nil || id != g.gray {
		return served, err
	}
	pix, err := jpegx.DecodeToPlanar(bytes.NewReader(served))
	if err != nil {
		return nil, err
	}
	pix.Planes = pix.Planes[:1]
	coeffs, err := pix.ToCoeffs(90, jpegx.Sub444)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = jpegx.EncodeCoeffs(&buf, coeffs, nil)
	return buf.Bytes(), err
}

// TestGrayPublicPartIs502: a PSP that answers a colour upload with a
// grayscale rendition gets a 502 naming both shapes — it used to panic inside
// the variant cache's loader — and the proxy keeps serving other photos.
func TestGrayPublicPartIs502(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	photos := &grayPhotos{memPhotos: memPhotos{s: psp.NewServer(psp.FlickrLike())}}
	px := New(codec, photos, p3.NewMemorySecretStore())
	publishTruePipeline(px, psp.FlickrLike())
	var ids [2]string
	for i := range ids {
		jpegBytes, _ := photoJPEG(t, int64(70+i), 160, 120)
		if ids[i], err = px.Upload(ctx, jpegBytes); err != nil {
			t.Fatal(err)
		}
	}
	px.InvalidateCaches() // forget the upload warm: both views are cold
	photos.gray = ids[0]

	get := func(id string) (int, string) {
		rec := httptest.NewRecorder()
		px.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/photo/"+id+"?size=small", nil))
		return rec.Code, rec.Body.String()
	}
	code, body := get(ids[0])
	if code != http.StatusBadGateway {
		t.Errorf("grayscale rendition of a colour photo: status %d, want 502", code)
	}
	if strings.Contains(body, "panicked") || !strings.Contains(body, "130x98x3") || !strings.Contains(body, "130x98x1") {
		t.Errorf("502 body %q: want an error naming the 130x98x3 and 130x98x1 shapes, not a recovered panic", body)
	}
	if code, body := get(ids[1]); code != http.StatusOK {
		t.Errorf("next photo after the hostile one: status %d (%s), want 200", code, body)
	}
}

// TestPartialUploadCleanup: when the secret part cannot be stored, the
// public part is deleted from the PSP and the error names the orphan.
func TestPartialUploadCleanup(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	photos := &countingPhotos{s: psp.NewServer(psp.FlickrLike())}
	store := &countingStore{inner: p3.NewMemorySecretStore(), failPuts: true}
	p := New(codec, photos, store)

	jpegBytes, _ := photoJPEG(t, 37, 160, 120)
	_, err = p.Upload(ctx, jpegBytes)
	var perr *PartialUploadError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PartialUploadError", err)
	}
	if perr.ID == "" {
		t.Error("PartialUploadError carries no orphan ID")
	}
	if !perr.Cleaned || perr.CleanupErr != nil {
		t.Errorf("cleanup not performed: %+v", perr)
	}
	// The public part must actually be gone from the PSP.
	if _, err := photos.FetchPhoto(ctx, perr.ID, p3.PhotoVariant{}); !p3.IsNotFound(err) {
		t.Errorf("orphaned public part still fetchable: err = %v", err)
	}
	// And the caches must not have been warmed with a failed upload.
	if st := p.Stats(); st.Secrets.Entries != 0 {
		t.Errorf("secret cache warmed despite failed upload: %+v", st.Secrets)
	}

	// A backend without delete support: orphan reported, not cleaned.
	memOnly := struct{ p3.PhotoService }{photos} // strips the optional interfaces
	p2 := New(codec, memOnly, store)
	_, err = p2.Upload(ctx, jpegBytes)
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PartialUploadError", err)
	}
	if perr.Cleaned || perr.CleanupErr != nil {
		t.Errorf("delete-less backend: %+v, want uncleaned with nil CleanupErr", perr)
	}
}

// TestMapCrop pins round-to-nearest mapping at a non-integral scale factor
// (1000/720 ≈ 1.389) where the old truncating division shifted and shrank
// windows.
func TestMapCrop(t *testing.T) {
	const origW, origH, storedW, storedH = 1000, 750, 720, 540
	for _, tc := range []struct {
		name     string
		in, want imaging.Crop
	}{
		// 100*1000/720 = 138.9 → 139 (truncation gave 138);
		// 360*1000/720 = 500 exactly.
		{"round_up_x", imaging.Crop{X: 100, Y: 0, W: 360, H: 360}, imaging.Crop{X: 139, Y: 0, W: 500, H: 500}},
		// 359*1000/720 = 498.6 → 499; 181*750/540 = 251.4 → 251.
		{"mixed_rounding", imaging.Crop{X: 359, Y: 181, W: 180, H: 180}, imaging.Crop{X: 499, Y: 251, W: 250, H: 250}},
		// Right-edge crop must clamp, not spill past the image.
		{"clamp_edge", imaging.Crop{X: 700, Y: 520, W: 20, H: 20}, imaging.Crop{X: 972, Y: 722, W: 28, H: 28}},
		// Degenerate tiny crop keeps at least one pixel.
		{"min_one_pixel", imaging.Crop{X: 0, Y: 0, W: 0, H: 0}, imaging.Crop{X: 0, Y: 0, W: 1, H: 1}},
	} {
		if got := mapCrop(tc.in, origW, origH, storedW, storedH); got != tc.want {
			t.Errorf("%s: mapCrop(%+v) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
	// Identity scale maps exactly.
	in := imaging.Crop{X: 10, Y: 20, W: 30, H: 40}
	if got := mapCrop(in, 720, 540, 720, 540); got != in {
		t.Errorf("identity mapCrop = %+v", got)
	}
	// Edges round independently: at scale 1.5, a 1-px crop at X=1 spans
	// [1.5, 3.0) → [2, 3), one pixel. Rounding W separately from X would
	// widen it to 2.
	got := mapCrop(imaging.Crop{X: 1, Y: 1, W: 1, H: 1}, 1080, 810, 720, 540)
	if want := (imaging.Crop{X: 2, Y: 2, W: 1, H: 1}); got != want {
		t.Errorf("edge rounding: mapCrop = %+v, want %+v", got, want)
	}
}

// TestCropAcrossIngestResize uploads a photo larger than the PSP's stored
// cap, so crop coordinates (stored space, 720×540) really do need rescaling
// onto the original 800×600 grid at a non-integral factor (800/720 ≈ 1.11).
func TestCropAcrossIngestResize(t *testing.T) {
	bed := newServingBed(t)
	jpegBytes, ref := photoJPEG(t, 39, 800, 600)
	id, err := bed.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the PSP did downsize at ingest.
	storedW, storedH, err := bed.proxy.storedDims(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if storedW != 720 || storedH != 540 {
		t.Fatalf("stored dims %dx%d, want 720x540", storedW, storedH)
	}
	q := url.Values{"crop": {"120,90,360,270"}, "w": {"120"}, "h": {"90"}}
	rec, err := bed.proxy.DownloadPixels(ctx, id, q)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Width != 120 || rec.Height != 90 {
		t.Fatalf("cropped download %dx%d, want 120x90", rec.Width, rec.Height)
	}
	// Ground truth: the same crop mapped onto the original grid, then the
	// PSP pipeline at the served size, applied to the original photo.
	mapped := mapCrop(imaging.Crop{X: 120, Y: 90, W: 360, H: 270}, 800, 600, 720, 540)
	want := imaging.Clamp(imaging.Compose{
		mapped,
		bed.photos.s.Pipeline.Op(120, 90),
	}.Apply(ref))
	if got := psnr(want, rec); got < 18 {
		t.Errorf("cross-scale cropped reconstruction PSNR %.1f dB, want >= 18", got)
	}
}

// TestOversizedCropMatchesClamped: a crop whose far edge lies far past the
// stored photo — past the int range, or past what scaling it onto the
// original grid can hold — reconstructs exactly what the same rectangle
// clamped to the stored photo does. The scaling used to overflow and map it
// to a one-pixel-wide column of the original, stretched across the served
// width; an edge past the int range wrapped negative and was refused as
// missing the photo.
func TestOversizedCropMatchesClamped(t *testing.T) {
	bed := newServingBed(t)
	jpegBytes, _ := photoJPEG(t, 41, 800, 600) // stored at 720×540
	id, err := bed.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ oversized, clamped string }{
		{"100,0,1000000000000000000,1000000000000000000", "100,0,620,540"},
		{"5,5,9223372036854775807,10", "5,5,715,10"},
	} {
		got, err := bed.proxy.DownloadPixels(ctx, id, url.Values{"crop": {tc.oversized}})
		if err != nil {
			t.Fatalf("crop=%s: %v", tc.oversized, err)
		}
		want, err := bed.proxy.DownloadPixels(ctx, id, url.Values{"crop": {tc.clamped}})
		if err != nil {
			t.Fatalf("crop=%s: %v", tc.clamped, err)
		}
		if got.Width != want.Width || got.Height != want.Height {
			t.Fatalf("crop=%s reconstructs %dx%d, crop=%s %dx%d", tc.oversized, got.Width, got.Height, tc.clamped, want.Width, want.Height)
		}
		for pi := range want.Planes {
			for i, v := range want.Planes[pi] {
				if got.Planes[pi][i] != v {
					t.Fatalf("crop=%s differs from crop=%s: plane %d sample %d is %v, want %v",
						tc.oversized, tc.clamped, pi, i, got.Planes[pi][i], v)
				}
			}
		}
	}
}

// lenientPhotos is a PSP that never refuses a crop: a rectangle that misses
// the w×h stored photo is ignored and the uncropped rendition served, so the
// rectangle reaches the proxy's own operator construction unchecked.
type lenientPhotos struct {
	*countingPhotos
	w, h int
}

func (l *lenientPhotos) FetchPhoto(ctx context.Context, id string, v p3.PhotoVariant) ([]byte, error) {
	if c := v.Crop; c != nil && (c.X >= l.w || c.Y >= l.h) {
		v.Crop = nil
	}
	return l.countingPhotos.FetchPhoto(ctx, id, v)
}

// TestCropOutsidePhotoIsBadRequest: an empty crop, or one that misses the
// photo, is the client's mistake — 400 through the HTTP surface and a
// *RequestError from DownloadPixels — even when the PSP lets it through and
// did not downsize the photo at ingest (so stored and original grids agree).
// It used to reach imaging.Crop and panic.
func TestCropOutsidePhotoIsBadRequest(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	photos := &lenientPhotos{countingPhotos: &countingPhotos{s: psp.NewServer(psp.FlickrLike())}, w: 160, h: 120}
	px := New(codec, photos, p3.NewMemorySecretStore())
	publishTruePipeline(px, psp.FlickrLike())
	jpegBytes, _ := photoJPEG(t, 41, photos.w, photos.h)
	id, err := px.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(px)
	defer srv.Close()
	for _, tc := range []struct {
		crop string
		want int
	}{
		{"500,500,10,10", http.StatusBadRequest},
		{"160,0,8,8", http.StatusBadRequest}, // first column past the right edge
		{"0,120,8,8", http.StatusBadRequest},
		{"10,10,0,0", http.StatusBadRequest},
		{"10,10,8,0", http.StatusBadRequest},
		{"150,110,50,50", http.StatusOK}, // overlaps the corner: clamped, served
	} {
		resp, err := http.Get(srv.URL + "/photo/" + id + "?crop=" + tc.crop)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET crop=%s = %d, want %d", tc.crop, resp.StatusCode, tc.want)
		}
	}
	var reqErr *RequestError
	if _, err := px.DownloadPixels(ctx, id, url.Values{"crop": {"500,500,10,10"}}); !errors.As(err, &reqErr) {
		t.Errorf("DownloadPixels with a crop outside the photo returned %v, want a *RequestError", err)
	}
}
