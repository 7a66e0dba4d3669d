package core

import (
	"bytes"
	"fmt"
	"testing"

	"p3/internal/dataset"
	"p3/internal/jpegx"
)

// TestFusedSplitDiag is the permanent differential test for the fused split
// capture: for every baseline stream shape the capture handles, the parts it
// replays from the token streams must be byte-identical to the reference
// pipeline (decode → coefficient split → encode). Any drift here corrupts
// stored parts silently, so the comparison is bytes, not PSNR. The
// progressive row checks the other direction: SplitJPEG of a progressive
// source takes the reference path, and its parts must equal the fused parts
// of a baseline encoding of the same coefficients.
func TestFusedSplitDiag(t *testing.T) {
	for _, tc := range []struct {
		sub         jpegx.Subsampling
		w, h        int
		threshold   int
		optimize    bool
		restart     int // source restart interval in MCUs
		gray        bool
		progressive bool
	}{
		{sub: jpegx.Sub420, w: 640, h: 480, threshold: 15, optimize: true},
		{sub: jpegx.Sub420, w: 129, h: 97, threshold: 15, optimize: true}, // partial MCUs on both edges
		{sub: jpegx.Sub444, w: 320, h: 240, threshold: 15, optimize: true},
		{sub: jpegx.Sub422, w: 320, h: 240, threshold: 15, optimize: true},
		{sub: jpegx.Sub420, w: 320, h: 240, threshold: 1, optimize: true},    // everything above |1| goes secret
		{sub: jpegx.Sub420, w: 320, h: 240, threshold: 1000, optimize: true}, // nearly nothing goes secret
		{sub: jpegx.Sub420, w: 320, h: 240, threshold: 15, optimize: false},  // Annex-K standard tables
		{sub: jpegx.Sub420, w: 129, h: 97, threshold: 15, optimize: true, restart: 1},
		{sub: jpegx.Sub422, w: 320, h: 240, threshold: 15, optimize: true, restart: 3},
		{w: 129, h: 97, threshold: 15, optimize: true, gray: true},
		{w: 129, h: 97, threshold: 15, optimize: false, restart: 3, gray: true},
		// Whole MCUs only: a progressive AC scan does not cover padding blocks.
		{sub: jpegx.Sub420, w: 320, h: 240, threshold: 15, optimize: true, progressive: true},
	} {
		layout := tc.sub.String()
		if tc.gray {
			layout = "gray"
		}
		name := fmt.Sprintf("%s_%dx%d_T%d_opt%v", layout, tc.w, tc.h, tc.threshold, tc.optimize)
		if tc.restart > 0 {
			name += fmt.Sprintf("_rst%d", tc.restart)
		}
		if tc.progressive {
			name += "_progressive"
		}
		t.Run(name, func(t *testing.T) {
			src := diagSource(t, tc.w, tc.h, tc.sub, tc.gray, tc.restart)
			pub, sec, captured, err := fusedParts(src, tc.threshold, tc.optimize)
			if err != nil {
				t.Fatal(err)
			}
			if !captured {
				t.Fatal("expected fused capture for baseline source")
			}
			var refPub, refSec []byte
			if tc.progressive {
				refPub, refSec = progressiveSplit(t, src, tc.threshold, tc.optimize)
			} else if refPub, refSec, err = referenceParts(src, tc.threshold, tc.optimize); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pub, refPub) {
				t.Errorf("public part differs: fused %d bytes, ref %d bytes", len(pub), len(refPub))
			}
			if !bytes.Equal(sec, refSec) {
				t.Errorf("secret part differs: fused %d bytes, ref %d bytes", len(sec), len(refSec))
			}
		})
	}
}

// FuzzFusedSplit holds the fused split to the reference pipeline on
// arbitrary streams: where DecodeBytesSplit returns a capture, the parts it
// serializes must equal Split + EncodeCoeffs byte for byte, and where the
// fused split fails the reference must fail too. Streams the capture
// declines (nil capture) take the reference path in SplitJPEG anyway.
// testdata/fuzz/FuzzFusedSplit holds two sources that spend redundant ZRLs,
// which the public part must not copy: one codes a ZRL right before an EOB,
// the other a ZRL that runs past k = 63.
//
// Run with `go test -run '^$' -fuzz FuzzFusedSplit ./internal/core/`.
func FuzzFusedSplit(f *testing.F) {
	for _, layout := range []struct {
		sub  jpegx.Subsampling
		gray bool
	}{{jpegx.Sub420, false}, {jpegx.Sub444, false}, {jpegx.Sub422, false}, {jpegx.Sub444, true}} {
		for _, restart := range []int{0, 1, 3} {
			src := diagSource(f, 48, 32, layout.sub, layout.gray, restart)
			for _, threshold := range []int{1, 15, 1000} {
				f.Add(src, uint16(threshold-1))
			}
		}
	}
	f.Fuzz(func(t *testing.T, src []byte, rawT uint16) {
		threshold := 1 + int(rawT)%MaxThreshold
		// Keep a mutated header from asking for a huge image.
		if w, h, _, _, err := jpegx.DecodeConfigBytes(src); err == nil && w*h > 1<<18 {
			return
		}
		pub, sec, captured, fusedErr := fusedParts(src, threshold, true)
		refPub, refSec, refErr := referenceParts(src, threshold, true)
		switch {
		case fusedErr != nil:
			if refErr == nil {
				t.Fatalf("T=%d: fused split fails (%v), reference succeeds", threshold, fusedErr)
			}
		case !captured:
		case refErr != nil:
			t.Fatalf("T=%d: reference split fails (%v), fused succeeds", threshold, refErr)
		case !bytes.Equal(pub, refPub):
			t.Fatalf("T=%d: public part differs: fused %d bytes, ref %d bytes", threshold, len(pub), len(refPub))
		case !bytes.Equal(sec, refSec):
			t.Fatalf("T=%d: secret part differs: fused %d bytes, ref %d bytes", threshold, len(sec), len(refSec))
		}
	})
}

// diagSource encodes a natural test image as a baseline JPEG: grayscale
// when gray is set (sub is then ignored), with restart markers every
// restart MCUs when restart > 0.
func diagSource(tb testing.TB, w, h int, sub jpegx.Subsampling, gray bool, restart int) []byte {
	tb.Helper()
	img := dataset.Natural(42, w, h)
	if gray {
		img.Planes = img.Planes[:1]
	}
	var buf bytes.Buffer
	opts := &jpegx.PixelEncodeOptions{Subsampling: sub, EncodeOptions: jpegx.EncodeOptions{RestartInterval: restart}}
	if err := jpegx.EncodePixels(&buf, img, opts); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fusedParts splits src through the fused capture. captured is false when
// the capture declined the stream's shape.
func fusedParts(src []byte, threshold int, optimize bool) (pub, sec []byte, captured bool, err error) {
	im, cap, err := jpegx.DecodeBytesSplit(src, threshold, nil, nil)
	if err != nil || cap == nil {
		return nil, nil, false, err
	}
	defer cap.Release()
	im.StripMarkers()
	var pubBuf, secBuf bytes.Buffer
	if err := cap.EncodePublic(&pubBuf, im, optimize); err != nil {
		return nil, nil, true, err
	}
	if err := cap.EncodeSecret(&secBuf, im, optimize); err != nil {
		return nil, nil, true, err
	}
	return pubBuf.Bytes(), secBuf.Bytes(), true, nil
}

// referenceParts splits src the long way: decode, coefficient split, and an
// encode of each part.
func referenceParts(src []byte, threshold int, optimize bool) (pub, sec []byte, err error) {
	im, err := jpegx.DecodeBytes(src)
	if err != nil {
		return nil, nil, err
	}
	im.StripMarkers()
	pubIm, secIm, err := Split(im, threshold)
	if err != nil {
		return nil, nil, err
	}
	opts := &jpegx.EncodeOptions{OptimizeHuffman: optimize}
	var pubBuf, secBuf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&pubBuf, pubIm, opts); err != nil {
		return nil, nil, err
	}
	if err := jpegx.EncodeCoeffs(&secBuf, secIm, opts); err != nil {
		return nil, nil, err
	}
	return pubBuf.Bytes(), secBuf.Bytes(), nil
}

// progressiveSplit re-encodes src's coefficients as a progressive JPEG and
// returns the parts SplitJPEG makes of it, the secret part decrypted.
func progressiveSplit(t *testing.T, src []byte, threshold int, optimize bool) (pub, sec []byte) {
	t.Helper()
	im, err := jpegx.DecodeBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	var prog bytes.Buffer
	if err := jpegx.EncodeCoeffs(&prog, im, &jpegx.EncodeOptions{Progressive: true}); err != nil {
		t.Fatal(err)
	}
	if _, cap, err := jpegx.DecodeBytesSplit(prog.Bytes(), threshold, nil, nil); err != nil || cap != nil {
		t.Fatalf("progressive source: capture %v, err %v; want the reference path", cap != nil, err)
	}
	var key Key
	out, err := SplitJPEG(prog.Bytes(), key, &Options{Threshold: threshold, OptimizeHuffman: optimize})
	if err != nil {
		t.Fatal(err)
	}
	_, sec, err = OpenSecret(key, out.SecretBlob)
	if err != nil {
		t.Fatal(err)
	}
	return out.PublicJPEG, sec
}
