package proxy

import (
	"bytes"
	"fmt"
	"math"
	"net/url"
	"runtime"
	"sync"
	"testing"

	"p3"
	"p3/internal/dataset"
	"p3/internal/jpegx"
	"p3/internal/metrics"
	"p3/internal/psp"
)

// fullSizePSP is a PSP server running pipeline that stores photos up to
// 1600×1200 whole.
func fullSizePSP(pipeline psp.Pipeline) memPhotos {
	s := psp.NewServer(pipeline)
	s.MaxStored = 1600
	return memPhotos{s: s}
}

// newMemProxy is a proxy over in-process backends — the PSP server called
// directly and a memory secret store — serving pipeline's own parameters,
// so a view's allocations are the proxy's own plus what the backends copy.
func newMemProxy(t *testing.T, key p3.Key, photos memPhotos, store p3.SecretStore, opts ...ProxyOption) *Proxy {
	t.Helper()
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	p := New(codec, photos, store, append([]ProxyOption{WithMetricsRegistry(metrics.NewRegistry())}, opts...)...)
	publishTruePipeline(p, photos.s.Pipeline)
	return p
}

// TestColdViewAllocation bounds what a cold full-size view of a 1600×1200
// photo allocates once the recycled view scratch is warm: the decode, the
// public part's planes, the reconstruction (written over those planes) and
// the re-encode all run in recycled buffers, leaving the effective secret's
// frequency rows, the weights, the fetched secret's copy and the served
// bytes. Measured: 2.6 MB. Allocating every buffer fresh costs 168 MB, so
// the bound stays well under a tenth of that.
func TestColdViewAllocation(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	// Flickr-like: the operator folds into one pass, as the calibrated one
	// the benchmark serves under does.
	p := newMemProxy(t, key, fullSizePSP(psp.FlickrLike()), p3.NewMemorySecretStore())
	jpegBytes, _ := photoJPEG(t, 36, 1600, 1200)
	id, err := p.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	// The free list hands out the scratch put last, so the second view runs
	// on the one the first sized, whichever goroutine runs it and whether or
	// not a collection ran in between.
	view := func() uint64 {
		p.InvalidateCaches()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := p.Download(ctx, id, url.Values{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if w, h, _, _, err := jpegx.DecodeConfigBytes(out); err != nil || w != 1600 || h != 1200 {
			t.Fatalf("served a %dx%d view (%v), want the full 1600x1200", w, h, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	warm := view()
	got := view()
	t.Logf("cold 1600x1200 view: %.1f MB warming the scratch, %.1f MB warm", float64(warm)/1e6, float64(got)/1e6)
	const bound = 6 << 20
	if got > bound {
		t.Errorf("a warm cold view allocated %.1f MB, want <= %.1f MB", float64(got)/1e6, float64(bound)/1e6)
	}
}

// enlargedPhotoJPEG is a 400×300 natural scene repeated k×k per sample and
// encoded: a large photo at a small fraction of dataset.Natural's cost at
// full size, which under -race is seconds.
func enlargedPhotoJPEG(t *testing.T, seed int64, k int) []byte {
	t.Helper()
	src := dataset.Natural(seed, 400, 300)
	img := jpegx.NewPlanarImage(400*k, 300*k, 3)
	for pi, p := range img.Planes {
		for i := range p {
			x, y := i%img.Width, i/img.Width
			p[i] = src.Planes[pi][y/k*400+x/k]
		}
	}
	coeffs, err := img.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColdViewsOwnTheirResults: views run concurrently through one proxy's
// recycled scratches serve exactly the bytes a fresh proxy serves one view at
// a time, and a DownloadPixels result is the caller's alone — later views
// do not write over it.
func TestColdViewsOwnTheirResults(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	// Facebook-like: the sharpen stops the fold, so the reconstruction is
	// added onto the public planes after it.
	photos, store := fullSizePSP(psp.FacebookLike()), p3.NewMemorySecretStore()
	// A one-byte variant cache keeps nothing, so every view is cold.
	shared := newMemProxy(t, key, photos, store, WithVariantCacheBytes(1))
	large := enlargedPhotoJPEG(t, 37, 4)
	small, _ := photoJPEG(t, 38, 320, 240)
	var ids []string
	for _, b := range [][]byte{large, small} {
		id, err := shared.Upload(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	type view struct {
		id string
		q  url.Values
	}
	var views []view
	for _, id := range ids {
		for _, q := range []string{"", "size=thumb", "crop=32,32,160,120&w=200&h=150"} {
			vals, err := url.ParseQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, view{id, vals})
		}
	}
	fresh := newMemProxy(t, key, photos, store)
	want := make([][]byte, len(views))
	for i, v := range views {
		if want[i], err = fresh.Download(ctx, v.id, v.q); err != nil {
			t.Fatal(err)
		}
	}
	pix, err := shared.DownloadPixels(ctx, ids[0], url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	kept := pix.Clone()

	const workers = 2
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(views))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range views {
				i := (j + w) % len(views) // each worker starts elsewhere
				got, err := shared.Download(ctx, views[i].id, views[i].q)
				if err == nil && !bytes.Equal(got, want[i]) {
					err = fmt.Errorf("%s?%s: %d bytes differ from the sequential view's %d", views[i].id, views[i].q.Encode(), len(got), len(want[i]))
				}
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for pi, plane := range kept.Planes {
		for i, v := range plane {
			if math.Float64bits(pix.Planes[pi][i]) != math.Float64bits(v) {
				t.Fatalf("DownloadPixels result plane %d sample %d changed under later views", pi, i)
			}
		}
	}
}
