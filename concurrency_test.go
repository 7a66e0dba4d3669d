package p3

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"p3/internal/core"
	"p3/internal/jpegx"
)

// The worker-pool refactor's contract: parallelism changes the wall clock,
// never the bytes. These tests pin that, and `go test -race` (which CI runs)
// guards the pool itself.

// secretJPEG opens a sealed blob and returns the inner secret-part JPEG;
// blobs themselves are not comparable across calls (fresh IV per seal).
func secretJPEG(t *testing.T, codec *Codec, blob []byte) []byte {
	t.Helper()
	_, sec, err := core.OpenSecret(core.Key(codec.Key()), blob)
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

func TestCodecParallelMatchesSequential(t *testing.T) {
	jpegBytes, _ := testJPEG(t, 21, 320, 240, jpegx.Sub420)
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New(key, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(key, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}

	sSeq, err := seq.SplitBytes(jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	sPar, err := par.SplitBytes(jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sSeq.PublicJPEG, sPar.PublicJPEG) {
		t.Error("parallel public part differs from sequential")
	}
	if !bytes.Equal(secretJPEG(t, seq, sSeq.SecretBlob), secretJPEG(t, par, sPar.SecretBlob)) {
		t.Error("parallel secret part differs from sequential")
	}

	jSeq, err := seq.JoinBytes(sSeq.PublicJPEG, sSeq.SecretBlob)
	if err != nil {
		t.Fatal(err)
	}
	jPar, err := par.JoinBytes(sSeq.PublicJPEG, sSeq.SecretBlob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jSeq, jPar) {
		t.Error("parallel join differs from sequential")
	}

	tr := Resize(160, 120, FilterLanczos).Then(Sharpen(1, 0.5))
	served := mustTransformJPEG(t, sSeq.PublicJPEG, tr)
	pSeq, err := seq.JoinProcessedBytes(served, sSeq.SecretBlob, tr)
	if err != nil {
		t.Fatal(err)
	}
	pPar, err := par.JoinProcessedBytes(served, sSeq.SecretBlob, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !imagesIdentical(pSeq, pPar) {
		t.Error("parallel processed join differs from sequential")
	}
}

// mustTransformJPEG fabricates the PSP-served variant: decode, apply t in
// the pixel domain, hand back the pixels re-encoded losslessly enough for an
// exact-comparison test (the same served bytes feed both codecs, so any
// encoding loss cancels).
func mustTransformJPEG(t *testing.T, publicJPEG []byte, tr Transform) []byte {
	t.Helper()
	img, err := DecodeImage(bytes.NewReader(publicJPEG))
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Apply(img)
	var buf bytes.Buffer
	if err := out.EncodeJPEG(&buf, 92); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// imagesIdentical requires exact float equality on every sample: the
// parallel pipeline must not even reorder floating-point additions.
func imagesIdentical(a, b *Image) bool {
	if a.pix.Width != b.pix.Width || a.pix.Height != b.pix.Height || len(a.pix.Planes) != len(b.pix.Planes) {
		return false
	}
	for pi := range a.pix.Planes {
		for i := range a.pix.Planes[pi] {
			if a.pix.Planes[pi][i] != b.pix.Planes[pi][i] {
				return false
			}
		}
	}
	return true
}

// TestCodecConcurrentHammer drives one shared Codec from many goroutines
// mixing all three operations and checks every output against golden bytes
// computed sequentially up front. Run under -race (CI does) this is the
// regression net over the shared worker pool and the pooled scratches.
func TestCodecConcurrentHammer(t *testing.T) {
	jpegBytes, _ := testJPEG(t, 22, 160, 120, jpegx.Sub420)
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	shared, err := New(key, WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := shared.SplitBytes(jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	goldenSecret := secretJPEG(t, shared, golden.SecretBlob)
	goldenJoin, err := shared.JoinBytes(golden.PublicJPEG, golden.SecretBlob)
	if err != nil {
		t.Fatal(err)
	}
	tr := Resize(80, 60, FilterTriangle)
	served := mustTransformJPEG(t, golden.PublicJPEG, tr)
	goldenProcessed, err := shared.JoinProcessedBytes(served, golden.SecretBlob, tr)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 4
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch (g + it) % 3 {
				case 0:
					out, err := shared.SplitBytes(jpegBytes)
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(out.PublicJPEG, golden.PublicJPEG) {
						errc <- fmt.Errorf("goroutine %d: public part diverged", g)
						return
					}
					if !bytes.Equal(secretJPEG(t, shared, out.SecretBlob), goldenSecret) {
						errc <- fmt.Errorf("goroutine %d: secret part diverged", g)
						return
					}
				case 1:
					out, err := shared.JoinBytes(golden.PublicJPEG, golden.SecretBlob)
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(out, goldenJoin) {
						errc <- fmt.Errorf("goroutine %d: join diverged", g)
						return
					}
				default:
					out, err := shared.JoinProcessedBytes(served, golden.SecretBlob, tr)
					if err != nil {
						errc <- err
						return
					}
					if !imagesIdentical(out, goldenProcessed) {
						errc <- fmt.Errorf("goroutine %d: processed join diverged", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestWithParallelismValidation(t *testing.T) {
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 0, MaxParallelism + 1} {
		_, err := New(key, WithParallelism(n))
		var perr *ParallelismError
		if !errors.As(err, &perr) {
			t.Errorf("WithParallelism(%d): got %v, want *ParallelismError", n, err)
		} else if perr.Parallelism != n {
			t.Errorf("WithParallelism(%d): error reports %d", n, perr.Parallelism)
		}
	}
	c, err := New(key, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.Parallelism() != 2 {
		t.Errorf("Parallelism() = %d, want 2", c.Parallelism())
	}
}

// TestHTTPBackendErrorSnippet pins the satellite behavior: non-2xx errors
// quote a bounded body snippet, and the body is drained so the connection
// can be reused.
func TestHTTPBackendErrorSnippet(t *testing.T) {
	long := strings.Repeat("x", 4*errorBodySnippetLen)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprint(w, "upstream exploded: "+long)
	}))
	defer srv.Close()

	ps := NewHTTPPhotoService(srv.URL)
	_, err := ps.FetchPhoto(t.Context(), "p1", PhotoVariant{})
	if err == nil {
		t.Fatal("want error for 502")
	}
	msg := err.Error()
	if !strings.Contains(msg, "502") || !strings.Contains(msg, "upstream exploded") {
		t.Errorf("error %q misses status or body snippet", msg)
	}
	if len(msg) > errorBodySnippetLen+128 {
		t.Errorf("error is %d bytes; snippet not bounded", len(msg))
	}

	if _, err := ps.UploadPhoto(t.Context(), []byte("jpeg")); err == nil || !strings.Contains(err.Error(), "upstream exploded") {
		t.Errorf("upload error %v misses body snippet", err)
	}
	ss := NewHTTPSecretStore(srv.URL)
	if err := ss.PutSecret(t.Context(), "s1", []byte("blob")); err == nil || !strings.Contains(err.Error(), "upstream exploded") {
		t.Errorf("put error %v misses body snippet", err)
	}
	if _, err := ss.GetSecret(t.Context(), "s1"); err == nil || !strings.Contains(err.Error(), "upstream exploded") {
		t.Errorf("get error %v misses body snippet", err)
	}
}

// TestJoinProcessedResultsOutliveLaterJoins: a JoinProcessedBytes result is
// the caller's alone. The Codec reconstructs through recycled cold-view
// scratches, so later joins of other sizes and of the same one must not
// write over an image it already returned.
func TestJoinProcessedResultsOutliveLaterJoins(t *testing.T) {
	jpegBytes, _ := testJPEG(t, 23, 240, 180, jpegx.Sub420)
	codec := newTestCodec(t, WithParallelism(2))
	split, err := codec.SplitBytes(jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	trs := []Transform{Resize(120, 90, FilterTriangle), Transform{}, Crop(20, 10, 100, 80).Then(Resize(50, 40, FilterLanczos)), Resize(120, 90, FilterTriangle)}
	var got, kept []*Image
	for _, tr := range trs {
		img, err := codec.JoinProcessedBytes(fabricateServed(t, split.PublicJPEG, tr), split.SecretBlob, tr)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, img)
		kept = append(kept, &Image{pix: img.pix.Clone()})
	}
	for i := range got {
		if !imagesIdentical(got[i], kept[i]) {
			t.Errorf("result %d (%s) changed under later joins", i, trs[i])
		}
	}
}
