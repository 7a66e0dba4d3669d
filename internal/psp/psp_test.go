package psp

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"p3/internal/dataset"
	"p3/internal/jpegx"
)

func testJPEG(t *testing.T, seed int64, w, h int) []byte {
	t.Helper()
	img := dataset.Natural(seed, w, h)
	coeffs, err := img.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		t.Fatal(err)
	}
	coeffs.AddMarker(0xE1, []byte("exif-like-data"))
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestUploadAndVariants(t *testing.T) {
	s := NewServer(FacebookLike())
	id, err := s.Upload(testJPEG(t, 1, 600, 400))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		size       string
		maxW, maxH int
	}{
		{"big", 720, 720},
		{"small", 130, 130},
		{"thumb", 75, 75},
	}
	for _, c := range cases {
		b, err := s.Photo(id, c.size, "", "", "")
		if err != nil {
			t.Fatalf("%s: %v", c.size, err)
		}
		w, h, _, prog, err := jpegx.DecodeConfig(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", c.size, err)
		}
		if w > c.maxW || h > c.maxH {
			t.Errorf("%s: %dx%d exceeds %dx%d", c.size, w, h, c.maxW, c.maxH)
		}
		if !prog {
			t.Errorf("%s: Facebook-like PSP must serve progressive", c.size)
		}
	}
	// Aspect ratio preserved on the small variant.
	b, _ := s.Photo(id, "small", "", "", "")
	w, h, _, _, _ := jpegx.DecodeConfig(bytes.NewReader(b))
	if w != 130 || h != 87 {
		t.Errorf("small variant %dx%d, want 130x87 (3:2 aspect)", w, h)
	}
}

func TestUploadRejectsNonJPEG(t *testing.T) {
	s := NewServer(FlickrLike())
	// Fully-encrypted blobs bounce, as Facebook does (§3.1).
	if _, err := s.Upload([]byte("ciphertextciphertextciphertext")); err == nil {
		t.Fatal("non-JPEG upload accepted")
	}
}

func TestMarkersStripped(t *testing.T) {
	s := NewServer(FlickrLike())
	id, err := s.Upload(testJPEG(t, 2, 300, 200))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Photo(id, "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	im, err := jpegx.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range im.Markers {
		if m.Marker == 0xE1 {
			t.Error("APP1 marker survived the PSP")
		}
	}
}

func TestDynamicResizeAndCrop(t *testing.T) {
	s := NewServer(FlickrLike())
	id, err := s.Upload(testJPEG(t, 3, 400, 300))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Photo(id, "", "", "200", "200")
	if err != nil {
		t.Fatal(err)
	}
	w, h, _, _, _ := jpegx.DecodeConfig(bytes.NewReader(b))
	if w != 200 || h != 150 {
		t.Errorf("dynamic resize %dx%d, want 200x150", w, h)
	}
	b, err = s.Photo(id, "", "40,30,160,120", "80", "60")
	if err != nil {
		t.Fatal(err)
	}
	w, h, _, _, _ = jpegx.DecodeConfig(bytes.NewReader(b))
	if w != 80 || h != 60 {
		t.Errorf("crop+resize %dx%d, want 80x60", w, h)
	}
	// Bad inputs.
	if _, err := s.Photo(id, "", "1,2,3", "", ""); err == nil {
		t.Error("malformed crop accepted")
	}
	if _, err := s.Photo(id, "", "", "0", "10"); err == nil {
		t.Error("zero width accepted")
	}
	for _, crop := range []string{"400,0,8,8", "0,300,8,8", "9000,9000,5,5", "10,10,0,0"} {
		if _, err := s.Photo(id, "", crop, "", ""); err == nil {
			t.Errorf("crop %s of a 400x300 photo served", crop)
		}
	}
	if _, err := s.Photo("nope", "", "", "", ""); err == nil {
		t.Error("unknown photo served")
	}
	if _, err := s.Photo(id, "nosuch", "", "", ""); err == nil {
		t.Error("unknown variant served")
	}
}

func TestUploadResizeCap(t *testing.T) {
	s := NewServer(FacebookLike())
	id, err := s.Upload(testJPEG(t, 4, 1600, 1200))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Photo(id, "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	w, h, _, _, _ := jpegx.DecodeConfig(bytes.NewReader(b))
	if w > 720 || h > 720 {
		t.Errorf("stored image %dx%d exceeds Facebook's 720 cap", w, h)
	}
	if n, err := s.StoredSize(id); err != nil || n == 0 {
		t.Errorf("StoredSize: %d, %v", n, err)
	}
	if _, err := s.StoredSize("nope"); err == nil {
		t.Error("StoredSize for unknown photo")
	}
}

func TestServerHTTP(t *testing.T) {
	srv := httptest.NewServer(NewServer(FlickrLike()))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/upload", "image/jpeg", bytes.NewReader(testJPEG(t, 5, 320, 240)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %s", resp.Status)
	}
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	get, err := http.Get(srv.URL + "/photo/" + out.ID + "?" + url.Values{"size": {"thumb"}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	body, _ := io.ReadAll(get.Body)
	if w, h, _, _, err := jpegx.DecodeConfig(bytes.NewReader(body)); err != nil || w > 75 || h > 75 {
		t.Errorf("thumb %dx%d err %v", w, h, err)
	}
	// Garbage upload over HTTP → 415.
	bad, _ := http.Post(srv.URL+"/upload", "image/jpeg", strings.NewReader("garbage"))
	bad.Body.Close()
	if bad.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("garbage upload status %d", bad.StatusCode)
	}
	// Unknown routes 404.
	nf, _ := http.Get(srv.URL + "/nope")
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d", nf.StatusCode)
	}
}

func TestBlobStore(t *testing.T) {
	b := NewBlobStore()
	b.Put("x", []byte("data"))
	got, err := b.Get("x")
	if err != nil || string(got) != "data" {
		t.Fatalf("Get: %q, %v", got, err)
	}
	if _, err := b.Get("missing"); err == nil {
		t.Error("missing blob served")
	}
	if b.GetCount() != 1 {
		t.Errorf("GetCount = %d", b.GetCount())
	}
	// Mutating the returned slice must not affect the store.
	got[0] = 'X'
	got2, _ := b.Get("x")
	if string(got2) != "data" {
		t.Error("store aliased its contents")
	}
}

func TestBlobStoreHTTP(t *testing.T) {
	srv := httptest.NewServer(NewBlobStore())
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/blob/abc", strings.NewReader("sealed"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status %s", resp.Status)
	}
	get, _ := http.Get(srv.URL + "/blob/abc")
	body, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if string(body) != "sealed" {
		t.Errorf("got %q", body)
	}
	miss, _ := http.Get(srv.URL + "/blob/zzz")
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Errorf("missing blob status %d", miss.StatusCode)
	}
	// DELETE removes the blob (proxies use it to clean up after partial
	// uploads); a repeat delete is idempotent.
	for i := 0; i < 2; i++ {
		del, _ := http.NewRequest(http.MethodDelete, srv.URL+"/blob/abc", nil)
		dresp, _ := http.DefaultClient.Do(del)
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusNoContent {
			t.Errorf("delete status %d", dresp.StatusCode)
		}
	}
	gone, _ := http.Get(srv.URL + "/blob/abc")
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Errorf("deleted blob status %d, want 404", gone.StatusCode)
	}
	// Other methods remain rejected.
	patch, _ := http.NewRequest(http.MethodPatch, srv.URL+"/blob/abc", nil)
	presp, _ := http.DefaultClient.Do(patch)
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("patch status %d, want 405", presp.StatusCode)
	}
}

func TestPipelineRenderGamma(t *testing.T) {
	p := FlickrLike()
	p.Gamma = 1.2
	b, err := p.Render(testJPEG(t, 6, 160, 120), nil, 80, 80)
	if err != nil {
		t.Fatal(err)
	}
	if w, h, _, _, err := jpegx.DecodeConfig(bytes.NewReader(b)); err != nil || w != 80 || h != 60 {
		t.Errorf("gamma render %dx%d err %v", w, h, err)
	}
}
