package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/work"
)

// TestViewJoinMatchesOracle runs every view through one ViewScratch — four
// geometries, 4:2:0 and 4:4:4, a same-size view, a resize, a crop of a
// resize, a sharpen that stops the fold and a trailing gamma, banded and
// sequential, on the scratch's planes and on fresh ones — and holds each
// result to its oracle bit for bit: the served part decoded, the difference
// image added in its own sweep and clamped in another (with the §3.3 remap
// inverted before and re-applied after). Fresh results must survive the
// views after them, and Encode must serve what ToCoeffs + EncodeCoeffs
// encode, in an exact-size slice.
func TestViewJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	var s ViewScratch
	type kept struct {
		name      string
		got, want *jpegx.PlanarImage
	}
	var fresh []kept
	enc := &jpegx.PixelEncodeOptions{Quality: 95, Subsampling: jpegx.Sub420, EncodeOptions: jpegx.EncodeOptions{OptimizeHuffman: true}}
	n := 0
	for _, g := range []struct {
		w, h int
		sub  jpegx.Subsampling
	}{{96, 80, jpegx.Sub420}, {131, 75, jpegx.Sub420}, {64, 48, jpegx.Sub444}, {40, 40, jpegx.Sub420}} {
		im := naturalImage(t, rng, g.w, g.h, g.sub)
		const threshold = 10
		pub, sec, err := Split(im, threshold)
		if err != nil {
			t.Fatal(err)
		}
		var secBuf bytes.Buffer
		if err := jpegx.EncodeCoeffs(&secBuf, sec, nil); err != nil {
			t.Fatal(err)
		}
		blob, err := SealSecret(key, threshold, secBuf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		pubPix := pub.ToPlanar()
		resize := imaging.Resize{W: g.w/2 + 3, H: g.h/2 + 1, Filter: imaging.CatmullRom}
		for _, op := range []imaging.Op{
			imaging.Identity{},
			resize,
			imaging.Compose{imaging.Crop{X: 8, Y: 4, W: g.w / 2, H: g.h / 2}, imaging.Resize{W: g.w / 3, H: g.h / 3, Filter: imaging.Lanczos3}},
			imaging.Compose{imaging.GaussianBlur{Sigma: 0.5}, resize, imaging.Sharpen{Sigma: 1, Amount: 0.5}},
			imaging.Compose{resize, imaging.Gamma{G: 1.1}},
		} {
			n++
			name := fmt.Sprintf("%dx%d %v, %s", g.w, g.h, g.sub, op)
			servedCo, err := imaging.Clamp(op.Apply(pubPix)).ToCoeffs(92, jpegx.Sub420)
			if err != nil {
				t.Fatal(err)
			}
			var served bytes.Buffer
			if err := jpegx.EncodeCoeffs(&served, servedCo, nil); err != nil {
				t.Fatal(err)
			}
			servedPix, err := jpegx.DecodeToPlanar(bytes.NewReader(served.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			sp := DeriveSecretPlanesPool(sec, threshold, nil)
			var want *jpegx.PlanarImage
			if linear, remap, ok := imaging.SplitRemap(op); op.Linear() {
				want = oracleReconstruct(sp, servedPix, op)
			} else if ok {
				want = imaging.Clamp(remap.Apply(oracleReconstruct(sp, remap.Inverse().Apply(servedPix), linear)))
			} else {
				t.Fatalf("%s: no oracle", name)
			}

			var pool *work.Pool
			if n%2 == 0 {
				pool = work.New(3)
			}
			isFresh := n%3 == 0
			got, err := s.Join(key, served.Bytes(), blob, func(origW, origH, servedW, servedH int) (imaging.Op, error) {
				if origW != g.w || origH != g.h || servedW != servedPix.Width || servedH != servedPix.Height {
					return nil, fmt.Errorf("asked for %dx%d → %dx%d", origW, origH, servedW, servedH)
				}
				return op, nil
			}, isFresh, pool)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if pi, i, ok := sameBits(got, want); !ok {
				t.Fatalf("%s: Join differs from the oracle at plane %d sample %d", name, pi, i)
			}
			if isFresh {
				fresh = append(fresh, kept{name, got, want})
			}
			out, err := s.Encode(got, enc)
			if err != nil {
				t.Fatal(err)
			}
			var wantOut bytes.Buffer
			if err := jpegx.EncodePixels(&wantOut, want, enc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, wantOut.Bytes()) || cap(out) != len(out) {
				t.Fatalf("%s: Encode served %d bytes (cap %d), EncodePixels %d", name, len(out), cap(out), wantOut.Len())
			}
		}
	}
	for _, k := range fresh {
		if pi, i, ok := sameBits(k.got, k.want); !ok {
			t.Errorf("%s: a fresh result changed under later views at plane %d sample %d", k.name, pi, i)
		}
	}
}

// TestViewJoinErrors: the operator callback's error ends the view as it is,
// and an operator that is neither linear nor linear-plus-remap, a public
// part that is not a JPEG, and a blob sealed under another key are refused.
func TestViewJoinErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	im := naturalImage(t, rng, 48, 32, jpegx.Sub420)
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, im, nil); err != nil {
		t.Fatal(err)
	}
	split, err := SplitJPEG(buf.Bytes(), key, nil)
	if err != nil {
		t.Fatal(err)
	}
	identity := func(int, int, int, int) (imaging.Op, error) { return imaging.Identity{}, nil }
	var s ViewScratch
	errOp := errors.New("no operator")
	if _, err := s.Join(key, split.PublicJPEG, split.SecretBlob, func(int, int, int, int) (imaging.Op, error) { return nil, errOp }, false, nil); err != errOp {
		t.Errorf("callback error: got %v", err)
	}
	twoGammas := func(int, int, int, int) (imaging.Op, error) {
		return imaging.Compose{imaging.Gamma{G: 2}, imaging.Gamma{G: 0.5}}, nil
	}
	if _, err := s.Join(key, split.PublicJPEG, split.SecretBlob, twoGammas, false, nil); err == nil {
		t.Error("a gamma before the last stage was accepted")
	}
	if _, err := s.Join(key, []byte("not a jpeg"), split.SecretBlob, identity, false, nil); err == nil {
		t.Error("a public part that is not a JPEG was accepted")
	}
	other, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(other, split.PublicJPEG, split.SecretBlob, identity, false, nil); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong key: got %v, want ErrAuth", err)
	}
	if _, err := s.Join(key, split.PublicJPEG, split.SecretBlob, identity, false, nil); err != nil {
		t.Errorf("the scratch did not recover from the failed views: %v", err)
	}
}
