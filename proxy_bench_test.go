package p3_test

// Proxy serving-path benchmarks: the hot/cold download pair tracks what the
// bounded variant cache buys on repeat views of one photo versus a full
// fetch + reconstruct + encode. External test package: the proxy imports
// p3, so these cannot live in package p3 itself.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"p3"
	"p3/internal/dataset"
	"p3/internal/jpegx"
	"p3/internal/proxy"
	"p3/internal/psp"
)

// benchPhotos adapts the in-process PSP to p3.PhotoService so the
// benchmark measures proxy work, not HTTP framing.
type benchPhotos struct{ s *psp.Server }

func (m benchPhotos) UploadPhoto(_ context.Context, jpegBytes []byte) (string, error) {
	return m.s.Upload(jpegBytes)
}

func (m benchPhotos) FetchPhoto(_ context.Context, id string, v p3.PhotoVariant) ([]byte, error) {
	q := v.Query()
	return m.s.Photo(id, q.Get("size"), q.Get("crop"), q.Get("w"), q.Get("h"))
}

// newBenchProxy calibrates a proxy over a Flickr-like PSP that stores photos
// up to 1600 pixels whole and uploads one w×h photo through it.
func newBenchProxy(b *testing.B, w, h int) (*proxy.Proxy, string) {
	b.Helper()
	ctx := context.Background()
	key, err := p3.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		b.Fatal(err)
	}
	pspServer := psp.NewServer(psp.FlickrLike())
	pspServer.MaxStored = 1600
	p := proxy.New(codec, benchPhotos{s: pspServer}, p3.NewMemorySecretStore())
	if _, err := p.Calibrate(ctx); err != nil {
		b.Fatal(err)
	}
	img := dataset.Natural(77, w, h)
	coeffs, err := img.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		b.Fatal(err)
	}
	id, err := p.Upload(ctx, buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	return p, id
}

// benchDownloadCold is the miss path: every iteration starts with empty
// caches and pays fetch + decrypt + reconstruct + encode for the view q of a
// w×h photo.
func benchDownloadCold(b *testing.B, w, h int, q url.Values) {
	p, id := newBenchProxy(b, w, h)
	ctx := context.Background()
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InvalidateCaches()
		out, err := p.Download(ctx, id, q)
		if err != nil {
			b.Fatal(err)
		}
		n = len(out)
	}
	b.SetBytes(int64(n))
}

// BenchmarkProxy_DownloadCold is a cold view of the small rendition of a
// 320×240 photo.
func BenchmarkProxy_DownloadCold(b *testing.B) {
	benchDownloadCold(b, 320, 240, url.Values{"size": {"small"}})
}

// BenchmarkProxy_DownloadColdLarge is a cold full-size view of a 1600×1200
// photo: a working set the small view hides — both parts' coefficients, the
// public part's planes, the re-encode — runs through the recycled view
// scratch.
func BenchmarkProxy_DownloadColdLarge(b *testing.B) {
	benchDownloadCold(b, 1600, 1200, url.Values{})
}

// BenchmarkProxy_DownloadHot is the hit path: the variant cache serves the
// reconstructed bytes directly.
func BenchmarkProxy_DownloadHot(b *testing.B) {
	p, id := newBenchProxy(b, 320, 240)
	ctx := context.Background()
	q := url.Values{"size": {"small"}}
	out, err := p.Download(ctx, id, q) // prime the variant cache
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(out)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Download(ctx, id, q); err != nil {
			b.Fatal(err)
		}
	}
}

// serveHotQueries are the benchmark's eight view variants: three named
// sizes, the full-size view, three dynamic resizes and a crop.
var serveHotQueries = [...]string{
	"size=thumb", "size=small", "size=big", "",
	"w=320&h=240", "w=128&h=96", "w=480&h=360",
	"crop=32,32,160,120&w=200&h=150",
}

// hotWriter is a ResponseWriter that keeps only the status, so the
// benchmark counts the handler's allocations and not a recorder's.
type hotWriter struct {
	h      http.Header
	status int
}

func (w *hotWriter) Header() http.Header         { return w.h }
func (w *hotWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *hotWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkProxy_ServeHot is the hit path at the surface views arrive on:
// GET /photo/{id}?… through ServeHTTP, cycling over the eight variants of
// one 320×240 photo, every one already in the variant cache. Unlike
// BenchmarkProxy_DownloadHot it pays the query parse.
func BenchmarkProxy_ServeHot(b *testing.B) {
	p, id := newBenchProxy(b, 320, 240)
	reqs := make([]*http.Request, len(serveHotQueries))
	w := &hotWriter{h: http.Header{}}
	for i, q := range serveHotQueries {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/photo/"+id+"?"+q, nil)
		w.status = http.StatusOK
		p.ServeHTTP(w, reqs[i]) // prime the variant cache
		if w.status != http.StatusOK {
			b.Fatalf("GET ?%s: status %d", q, w.status)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		p.ServeHTTP(w, reqs[i%len(reqs)])
	}
}

// BenchmarkProxy_ServeHotParallel is BenchmarkProxy_ServeHot with every
// goroutine of RunParallel (GOMAXPROCS of them; set with -cpu) serving the
// same eight cached variants through its own writer, so views that share a
// hot photo contend on the variant cache as they do in a busy feed.
func BenchmarkProxy_ServeHotParallel(b *testing.B) {
	p, id := newBenchProxy(b, 320, 240)
	reqs := make([]*http.Request, len(serveHotQueries))
	for i, q := range serveHotQueries {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/photo/"+id+"?"+q, nil)
		w := &hotWriter{h: http.Header{}, status: http.StatusOK}
		p.ServeHTTP(w, reqs[i]) // prime the variant cache
		if w.status != http.StatusOK {
			b.Fatalf("GET ?%s: status %d", q, w.status)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := &hotWriter{h: http.Header{}}
		for i := 0; pb.Next(); i++ {
			clear(w.h)
			p.ServeHTTP(w, reqs[i%len(reqs)])
		}
	})
}
