package proxy

// The cache-hit path: a view's query parsed once into a PhotoVariant, its
// cache key appended from that variant, one lookup. And its converse, a
// photo's delete, which drops that photo's variants alone.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"p3"
	"p3/internal/psp"
)

// TestVariantKeyMatchesFormatted pins the variant-cache key to its earlier
// definition, fmt.Sprintf("%d\x00%s\x00%s", epoch, id, v.Query().Encode())
// with Query built as a url.Values map, so entries keep their addresses:
// escaped sizes, crops, bare w or h. The queries are that map's encodings,
// as the earlier code printed them.
func TestVariantKeyMatchesFormatted(t *testing.T) {
	for _, tc := range []struct {
		v     p3.PhotoVariant
		query string
	}{
		{p3.PhotoVariant{}, ""},
		{p3.PhotoVariant{Size: "small"}, "size=small"},
		{p3.PhotoVariant{Size: "big thumb"}, "size=big+thumb"},
		{p3.PhotoVariant{Size: "a&b=c%d/é~_.-"}, "size=a%26b%3Dc%25d%2F%C3%A9~_.-"},
		{p3.PhotoVariant{Size: "small", W: 10, H: 20, Crop: &p3.CropRect{X: 1, Y: 2, W: 3, H: 4}}, "size=small"},
		{p3.PhotoVariant{W: 320, H: 240}, "h=240&w=320"},
		{p3.PhotoVariant{W: 320}, "w=320"},
		{p3.PhotoVariant{H: 240}, "h=240"},
		{p3.PhotoVariant{W: -3, H: 0}, ""},
		{p3.PhotoVariant{Crop: &p3.CropRect{X: 32, Y: 32, W: 160, H: 120}}, "crop=32%2C32%2C160%2C120"},
		{p3.PhotoVariant{W: 200, H: 150, Crop: &p3.CropRect{X: 32, Y: 32, W: 160, H: 120}}, "crop=32%2C32%2C160%2C120&h=150&w=200"},
		{p3.PhotoVariant{H: 7, Crop: &p3.CropRect{X: -1, Y: 0, W: 1 << 40, H: 9}}, "crop=-1%2C0%2C1099511627776%2C9&h=7"},
	} {
		for _, id := range []string{"p00000001", "", "a/b?c", string(make([]byte, 300))} {
			for _, epoch := range []uint64{0, 1, 1<<64 - 1} {
				want := fmt.Sprintf("%d\x00%s\x00%s", epoch, id, tc.query)
				if got := variantKeyFor(epoch, id, tc.v); got != want {
					t.Errorf("variantKeyFor(%d, %q, %+v) = %q, want %q", epoch, id, tc.v, got, want)
				}
			}
		}
	}
}

// TestVariantKeyRoundTrip: parseVariantKey inverts variantKeyFor for
// every variant a request can parse into.
func TestVariantKeyRoundTrip(t *testing.T) {
	for _, raw := range []string{"", "size=small", "size=a%26b", "w=320&h=240", "crop=32,32,160,120&w=200&h=150", "h=9"} {
		v, err := p3.ParsePhotoVariantQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		key := variantKeyFor(7, "p1", v)
		id, got, ok := parseVariantKey(key)
		if !ok || id != "p1" || variantKeyFor(7, id, got) != key {
			t.Errorf("%q: parseVariantKey(%q) = %q, %+v, %v", raw, key, id, got, ok)
		}
	}
	if _, _, ok := parseVariantKey("video\x00p1\x003"); ok {
		t.Error("video key parsed as a photo variant")
	}
}

// TestSizeTakesPrecedenceOverCrop: a view asking for a named size and a
// crop at once is the named size. The fetch and the cache key follow Size
// alone, so a crop reaching the operator would serve a wrongly cropped
// picture and cache it under the plain size's key for every later view.
func TestSizeTakesPrecedenceOverCrop(t *testing.T) {
	pipeline := psp.FacebookLike()
	photos := &countingPhotos{s: psp.NewServer(pipeline)}
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	p := New(codec, photos, p3.NewMemorySecretStore())
	publishTruePipeline(p, pipeline)
	jpegBytes, _ := photoJPEG(t, 43, 512, 384)
	id, err := p.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	get := func(query string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/photo/"+id+"?"+query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET ?%s: %d %s", query, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	mixed := get("size=small&crop=0,0,64,48")
	plain := get("size=small")
	p.InvalidateCaches()
	fresh := get("size=small")
	if !bytes.Equal(plain, fresh) {
		t.Errorf("plain size=small after a mixed view: %d bytes, fresh rendition %d bytes", len(plain), len(fresh))
	}
	if !bytes.Equal(mixed, fresh) {
		t.Errorf("size=small&crop=…: %d bytes, want the size=small rendition (%d bytes)", len(mixed), len(fresh))
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so an allocation
// count sees only the handler's own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestServeHotAllocs holds a cache-hit GET /photo/{id} to its allocation
// budget: none, but for the crop rectangle the parse makes for a crop. The
// key is looked up as appended bytes, the load callback is built only on a
// miss and the Content-Type value is one shared slice.
func TestServeHotAllocs(t *testing.T) {
	bed := newServingBed(t)
	jpegBytes, _ := photoJPEG(t, 44, 320, 240)
	id, err := bed.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	for _, tc := range []struct {
		query  string
		budget float64
	}{
		{"size=thumb", 0}, {"size=small", 0}, {"size=big", 0}, {"", 0},
		{"w=320&h=240", 0}, {"w=128&h=96", 0}, {"w=480&h=360", 0},
		{"crop=32,32,160,120&w=200&h=150", 1},
	} {
		r := httptest.NewRequest(http.MethodGet, "/photo/"+id+"?"+tc.query, nil)
		if bed.proxy.ServeHTTP(w, r); w.h.Get("Content-Type") != "image/jpeg" {
			t.Fatalf("?%s: not served: %v", tc.query, w.h)
		}
		fetches := bed.photos.fetches.Load()
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.h)
			bed.proxy.ServeHTTP(w, r)
		})
		if bed.photos.fetches.Load() != fetches {
			t.Fatalf("?%s: a repeat view fetched from the PSP", tc.query)
		}
		if allocs > tc.budget {
			t.Errorf("?%s: %.1f allocations per cache hit, budget %.0f", tc.query, allocs, tc.budget)
		}
	}
}

// TestDeleteSparesOtherPhotosLoad: deleting photo A while B's cold view is
// loading leaves B's rendition cached, so B's next view is a hit.
func TestDeleteSparesOtherPhotosLoad(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	photos := newGatedPhotos(psp.FlickrLike())
	p := New(codec, photos, p3.NewMemorySecretStore())
	publishTruePipeline(p, psp.FlickrLike())
	var ids [2]string
	for i := range ids {
		jpegBytes, _ := photoJPEG(t, int64(50+i), 320, 240)
		if ids[i], err = p.Upload(ctx, jpegBytes); err != nil {
			t.Fatal(err)
		}
	}
	a, b := ids[0], ids[1]
	small := url.Values{"size": {"small"}}
	if _, err := p.Download(ctx, a, small); err != nil {
		t.Fatal(err)
	}
	photos.mu.Lock()
	photos.gated[b] = true
	photos.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := p.Download(ctx, b, small)
		done <- err
	}()
	<-photos.entered
	if err := p.Delete(ctx, a); err != nil {
		t.Fatal(err)
	}
	close(photos.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	fetches := photos.fetches.Load()
	if _, err := p.Download(ctx, b, small); err != nil {
		t.Fatal(err)
	}
	if photos.fetches.Load() != fetches {
		t.Error("B's view loading across Delete(A) was not cached: its next view fetched again")
	}
	if _, err := p.Download(ctx, a, small); !p3.IsNotFound(err) {
		t.Errorf("view of deleted A: %v, want not found", err)
	}
}

// TestDeleteTimeBounded: one photo's Delete costs that photo's variants,
// not the cache's: with the variant cache at its 65,536-entry bound (8
// variants each of 8,192 photos) a Delete, backends included, takes at most
// 50 µs, the least of eight.
func TestDeleteTimeBounded(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	// Backends without deletion: Delete's time is the proxy's own.
	p := New(codec, struct{ p3.PhotoService }{&countingPhotos{s: psp.NewServer(psp.FlickrLike())}},
		struct{ p3.SecretStore }{p3.NewMemorySecretStore()})
	for i := 0; i < maxCacheEntries; i++ {
		p.variants.Put(variantKeyFor(1, fmt.Sprintf("p%05d", i/8), p3.PhotoVariant{W: 1 + i%8}), []byte{1})
	}
	if n := p.Stats().Variants.Entries; n != maxCacheEntries {
		t.Fatalf("variant cache holds %d entries, want %d", n, maxCacheEntries)
	}
	best := time.Hour
	for i := 0; i < 8; i++ {
		start := time.Now()
		if err := p.Delete(ctx, fmt.Sprintf("p%05d", 1000*i)); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	if n := p.Stats().Variants.Entries; n != maxCacheEntries-64 {
		t.Errorf("variant cache holds %d entries after 8 deletes, want %d", n, maxCacheEntries-64)
	}
	if best > 50*time.Microsecond {
		t.Errorf("fastest of 8 Deletes took %v at %d cached variants, want <= 50µs", best, maxCacheEntries)
	}
}
