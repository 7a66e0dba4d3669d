package recpsp

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"p3"
	"p3/internal/dataset"
	"p3/internal/jpegx"
)

func testJPEG(t *testing.T, seed int64) []byte {
	t.Helper()
	coeffs, err := dataset.Natural(seed, 160, 120).ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReplayAndMisses(t *testing.T) {
	ctx := context.Background()
	p := New()
	known, unknown := testJPEG(t, 1), testJPEG(t, 2)
	small := p3.PhotoVariant{Size: "small"}
	resize := p3.PhotoVariant{W: 64, H: 48}
	if err := p.Record(known, []p3.PhotoVariant{resize, small}); err != nil {
		t.Fatal(err)
	}
	base := p.Stats()

	// Known bytes: two uploads mint two IDs over one recording, no misses.
	id1, w, h, err := p.UploadPhotoWithDims(ctx, known)
	if err != nil || w != 160 || h != 120 {
		t.Fatalf("upload: %v (%dx%d)", err, w, h)
	}
	id2, _ := p.UploadPhoto(ctx, known)
	if id1 == id2 {
		t.Fatal("uploads of the same bytes must get fresh IDs")
	}
	a, err := p.FetchPhoto(ctx, id1, resize)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.FetchPhoto(ctx, id2, resize)
	if _, err := p.FetchPhoto(ctx, id1, small); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || len(a) == 0 {
		t.Fatal("aliases of one recording must serve identical bytes")
	}
	if s := p.Stats(); s.Misses != base.Misses || s.Lookups != base.Lookups+5 || s.LiveBytes != 2*int64(len(known)) {
		t.Fatalf("replay counted %+v from %+v", s, base)
	}

	// Unknown bytes and an unrecorded variant fall through and are counted.
	id3, err := p.UploadPhoto(ctx, unknown)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.FetchPhoto(ctx, id3, resize); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Misses != base.Misses+2 {
		t.Fatalf("misses = %d, want %d", s.Misses, base.Misses+2)
	}

	// Deleting an ID keeps the recording and the other alias.
	if err := p.DeletePhoto(ctx, id1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FetchPhoto(ctx, id1, small); !p3.IsNotFound(err) {
		t.Fatalf("fetch after delete: %v", err)
	}
	if _, err := p.FetchPhoto(ctx, id2, small); err != nil {
		t.Fatal(err)
	}
	if err := p.DeletePhoto(ctx, id1); !p3.IsNotFound(err) {
		t.Fatalf("second delete: %v", err)
	}
}

// The handler must be wire-compatible with psp.Server as the root HTTP
// client sees it: dims in the upload response, 404 for missing photos.
func TestHTTPHandlerSpeaksThePSPWireAPI(t *testing.T) {
	ctx := context.Background()
	p := New()
	srv := httptest.NewServer(p)
	defer srv.Close()
	client := p3.NewHTTPPhotoService(srv.URL)
	jpeg := testJPEG(t, 3)

	id, w, h, err := client.UploadPhotoWithDims(ctx, jpeg)
	if err != nil || w != 160 || h != 120 {
		t.Fatalf("upload: %v (%dx%d)", err, w, h)
	}
	crop := p3.PhotoVariant{Crop: &p3.CropRect{X: 8, Y: 8, W: 64, H: 48}, W: 32, H: 24}
	over, err := client.FetchPhoto(ctx, id, crop)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := p.FetchPhoto(ctx, id, crop)
	if !bytes.Equal(over, direct) {
		t.Fatal("HTTP fetch differs from the in-process fetch")
	}
	if _, err := client.UploadPhoto(ctx, []byte("not a jpeg")); err == nil {
		t.Fatal("undecodable upload must be rejected")
	}
	if err := client.DeletePhoto(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := client.FetchPhoto(ctx, id, p3.PhotoVariant{}); !p3.IsNotFound(err) {
		t.Fatalf("fetch after delete: %v", err)
	}
}
