package p3

import (
	"bytes"
	"testing"

	"p3/internal/dataset"
	"p3/internal/jpegx"
	"p3/internal/vision"
)

// testJPEG synthesizes a photo and returns its JPEG bytes plus the decoded
// coefficient image for exactness checks.
func testJPEG(t testing.TB, seed int64, w, h int, sub jpegx.Subsampling) ([]byte, *jpegx.CoeffImage) {
	t.Helper()
	img := dataset.Natural(seed, w, h)
	coeffs, err := img.ToCoeffs(92, sub)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), coeffs
}

func newTestCodec(t testing.TB, opts ...Option) *Codec {
	t.Helper()
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := New(key, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return codec
}

// TestFacadeRoundTrip exercises the Codec end to end, with the source's
// entropy tables and with re-derived (optimized) ones: neither changes the
// threshold a split records or the exactness of the join.
func TestFacadeRoundTrip(t *testing.T) {
	jpegBytes, coeffs := testJPEG(t, 1, 256, 192, jpegx.Sub420)
	for _, optimize := range []bool{false, true} {
		codec := newTestCodec(t, WithHuffmanOptimization(optimize))
		split, err := codec.SplitBytes(jpegBytes)
		if err != nil {
			t.Fatal(err)
		}
		if split.Threshold != DefaultThreshold {
			t.Errorf("optimize=%v: threshold %d, want default %d", optimize, split.Threshold, DefaultThreshold)
		}
		// Public part must be decodable stand-alone and degraded.
		pubIm, err := jpegx.Decode(bytes.NewReader(split.PublicJPEG))
		if err != nil {
			t.Fatalf("optimize=%v: public part not a valid JPEG: %v", optimize, err)
		}
		psnr, err := vision.PSNR(coeffs.ToPlanar(), pubIm.ToPlanar())
		if err != nil {
			t.Fatal(err)
		}
		if psnr > 25 {
			t.Errorf("optimize=%v: public part PSNR %.1f dB — not degraded enough", optimize, psnr)
		}
		// Exact reconstruction.
		joined, err := codec.JoinBytes(split.PublicJPEG, split.SecretBlob)
		if err != nil {
			t.Fatal(err)
		}
		got, err := jpegx.Decode(bytes.NewReader(joined))
		if err != nil {
			t.Fatal(err)
		}
		for ci := range coeffs.Components {
			for bi := range coeffs.Components[ci].Blocks {
				if got.Components[ci].Blocks[bi] != coeffs.Components[ci].Blocks[bi] {
					t.Fatalf("optimize=%v: facade round trip not coefficient-exact", optimize)
				}
			}
		}
	}
}

func TestFacadeErrors(t *testing.T) {
	codec := newTestCodec(t)
	if _, err := codec.SplitBytes([]byte("junk")); err == nil {
		t.Error("junk accepted")
	}
	if _, err := codec.JoinBytes([]byte("junk"), []byte("junk")); err == nil {
		t.Error("junk parts accepted")
	}
}

// fabricateServed simulates a PSP: decode the public part, apply the
// transform in the pixel domain, re-encode — all through the public API.
func fabricateServed(t testing.TB, publicJPEG []byte, op Transform) []byte {
	t.Helper()
	img, err := DecodeImage(bytes.NewReader(publicJPEG))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := op.Apply(img).EncodeJPEG(&buf, 95); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
