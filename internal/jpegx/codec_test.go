package jpegx

import (
	"bytes"
	"image"
	"image/jpeg"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomCoeffImage builds a structurally valid coefficient image with a
// natural-image-like sparse coefficient distribution.
func randomCoeffImage(rng *rand.Rand, w, h int, gray bool, sub Subsampling) *CoeffImage {
	luma, chroma := StandardQuantTables(90)
	im := &CoeffImage{Width: w, Height: h}
	im.Quant[0] = &luma
	if gray {
		im.Components = []Component{{ID: 1, H: 1, V: 1, TqIndex: 0}}
	} else {
		im.Quant[1] = &chroma
		lh, lv := sub.factors()
		im.Components = []Component{
			{ID: 1, H: lh, V: lv, TqIndex: 0},
			{ID: 2, H: 1, V: 1, TqIndex: 1},
			{ID: 3, H: 1, V: 1, TqIndex: 1},
		}
	}
	mcusX, mcusY := im.mcuDims()
	for ci := range im.Components {
		c := &im.Components[ci]
		c.BlocksX = mcusX * c.H
		c.BlocksY = mcusY * c.V
		c.Blocks = make([]Block, c.BlocksX*c.BlocksY)
		for bi := range c.Blocks {
			b := &c.Blocks[bi]
			b[0] = int32(rng.Intn(2033) - 1016) // DC
			// Sparse ACs, energy decaying with frequency.
			for zz := 1; zz < 64; zz++ {
				if rng.Float64() < 0.2 {
					limit := 900 / zz
					if limit < 2 {
						limit = 2
					}
					b[zigzag[zz]] = int32(rng.Intn(2*limit+1) - limit)
				}
			}
		}
	}
	return im
}

// zeroPaddingAC clears AC coefficients in blocks outside the non-interleaved
// scan coverage (the MCU padding area).
func zeroPaddingAC(im *CoeffImage) {
	hMax, vMax := im.MaxSampling()
	for ci := range im.Components {
		c := &im.Components[ci]
		cw := (im.Width*c.H + hMax - 1) / hMax
		ch := (im.Height*c.V + vMax - 1) / vMax
		bw, bh := (cw+7)/8, (ch+7)/8
		for by := 0; by < c.BlocksY; by++ {
			for bx := 0; bx < c.BlocksX; bx++ {
				if bx < bw && by < bh {
					continue
				}
				b := c.Block(bx, by)
				dc := b[0]
				*b = Block{}
				b[0] = dc
			}
		}
	}
}

func coeffImagesEqual(a, b *CoeffImage) bool {
	if a.Width != b.Width || a.Height != b.Height || len(a.Components) != len(b.Components) {
		return false
	}
	for ci := range a.Components {
		ca, cb := &a.Components[ci], &b.Components[ci]
		if ca.H != cb.H || ca.V != cb.V || ca.BlocksX != cb.BlocksX || ca.BlocksY != cb.BlocksY {
			return false
		}
		for bi := range ca.Blocks {
			if ca.Blocks[bi] != cb.Blocks[bi] {
				return false
			}
		}
	}
	for i := range a.Quant {
		if (a.Quant[i] == nil) != (b.Quant[i] == nil) {
			return false
		}
		if a.Quant[i] != nil && *a.Quant[i] != *b.Quant[i] {
			return false
		}
	}
	return true
}

func TestCoeffRoundTripBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name string
		w, h int
		gray bool
		sub  Subsampling
		opts EncodeOptions
	}{
		{"gray_64x64", 64, 64, true, Sub444, EncodeOptions{}},
		{"color_444", 64, 48, false, Sub444, EncodeOptions{}},
		{"color_420", 80, 56, false, Sub420, EncodeOptions{}},
		{"color_422", 72, 40, false, Sub422, EncodeOptions{}},
		{"color_440", 40, 72, false, Sub440, EncodeOptions{}},
		{"odd_dims_420", 37, 23, false, Sub420, EncodeOptions{}},
		{"tiny_1x1", 1, 1, false, Sub420, EncodeOptions{}},
		{"optimized", 64, 64, false, Sub420, EncodeOptions{OptimizeHuffman: true}},
		{"restart", 96, 96, false, Sub420, EncodeOptions{RestartInterval: 3}},
		{"restart_1", 48, 48, false, Sub444, EncodeOptions{RestartInterval: 1}},
		{"optimized_restart", 64, 64, false, Sub420, EncodeOptions{OptimizeHuffman: true, RestartInterval: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im := randomCoeffImage(rng, tc.w, tc.h, tc.gray, tc.sub)
			var buf bytes.Buffer
			if err := EncodeCoeffs(&buf, im, &tc.opts); err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !coeffImagesEqual(im, got) {
				t.Fatal("coefficients changed across encode/decode")
			}
		})
	}
}

func TestCoeffRoundTripProgressive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range []struct {
		name string
		w, h int
		gray bool
		sub  Subsampling
	}{
		{"color_420", 80, 64, false, Sub420},
		{"color_444", 48, 48, false, Sub444},
		{"gray", 64, 40, true, Sub444},
		{"odd", 33, 49, false, Sub420},
	} {
		t.Run(tc.name, func(t *testing.T) {
			im := randomCoeffImage(rng, tc.w, tc.h, tc.gray, tc.sub)
			// Progressive AC scans are non-interleaved and cover only the
			// ceil(component-size/8) block grid, so AC coefficients in MCU
			// padding blocks are not representable (T.81 A.2.2). Real images
			// hold edge-replicated data there; for random data we zero them
			// to state the achievable expectation.
			zeroPaddingAC(im)
			var buf bytes.Buffer
			if err := EncodeCoeffs(&buf, im, &EncodeOptions{Progressive: true}); err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !got.Progressive {
				t.Error("decoded image not flagged progressive")
			}
			if !coeffImagesEqual(im, got) {
				t.Fatal("coefficients changed across progressive encode/decode")
			}
		})
	}
}

// TestProgressiveAgainstStdlib cross-validates our progressive writer against
// the Go standard library's progressive decoder.
func TestProgressiveAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	im := randomCoeffImage(rng, 64, 64, false, Sub420)
	var progBuf, baseBuf bytes.Buffer
	if err := EncodeCoeffs(&progBuf, im, &EncodeOptions{Progressive: true}); err != nil {
		t.Fatal(err)
	}
	if err := EncodeCoeffs(&baseBuf, im, nil); err != nil {
		t.Fatal(err)
	}
	pimg, err := jpeg.Decode(bytes.NewReader(progBuf.Bytes()))
	if err != nil {
		t.Fatalf("stdlib cannot decode our progressive stream: %v", err)
	}
	bimg, err := jpeg.Decode(bytes.NewReader(baseBuf.Bytes()))
	if err != nil {
		t.Fatalf("stdlib cannot decode our baseline stream: %v", err)
	}
	// Identical coefficients ⇒ identical pixels regardless of scan script.
	if !imagesAlmostEqual(pimg, bimg, 0) {
		t.Error("stdlib decodes progressive and baseline encodings differently")
	}
}

func imagesAlmostEqual(a, b image.Image, tol int) bool {
	if a.Bounds() != b.Bounds() {
		return false
	}
	for y := a.Bounds().Min.Y; y < a.Bounds().Max.Y; y++ {
		for x := a.Bounds().Min.X; x < a.Bounds().Max.X; x++ {
			ar, ag, ab, _ := a.At(x, y).RGBA()
			br, bg, bb, _ := b.At(x, y).RGBA()
			if absInt(int(ar>>8)-int(br>>8)) > tol ||
				absInt(int(ag>>8)-int(bg>>8)) > tol ||
				absInt(int(ab>>8)-int(bb>>8)) > tol {
				return false
			}
		}
	}
	return true
}

// gradientPlanar builds a smooth color test image.
func gradientPlanar(w, h int) *PlanarImage {
	p := NewPlanarImage(w, h, 3)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			r := uint8(x * 255 / max(1, w-1))
			g := uint8(y * 255 / max(1, h-1))
			b := uint8((x + y) * 255 / max(1, w+h-2))
			yy, cb, cr := RGBToYCbCr(r, g, b)
			p.Planes[0][i] = float64(yy)
			p.Planes[1][i] = float64(cb)
			p.Planes[2][i] = float64(cr)
		}
	}
	return p
}

func planePSNR(a, b *PlanarImage) float64 {
	var mse float64
	n := 0
	for pi := range a.Planes {
		for i := range a.Planes[pi] {
			d := a.Planes[pi][i] - b.Planes[pi][i]
			mse += d * d
			n++
		}
	}
	mse /= float64(n)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func TestPixelEncodeDecodePSNR(t *testing.T) {
	src := gradientPlanar(96, 80)
	for _, sub := range []Subsampling{Sub444, Sub420, Sub422} {
		var buf bytes.Buffer
		if err := EncodePixels(&buf, src, &PixelEncodeOptions{Quality: 95, Subsampling: sub}); err != nil {
			t.Fatalf("%v: %v", sub, err)
		}
		got, err := DecodeToPlanar(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: %v", sub, err)
		}
		if psnr := planePSNR(src, got); psnr < 35 {
			t.Errorf("%v: PSNR %.1f dB, want >= 35", sub, psnr)
		}
	}
}

// TestDecodeStdlibEncoded feeds a stdlib-encoded JPEG (4:2:0) to our decoder.
func TestDecodeStdlibEncoded(t *testing.T) {
	src := gradientPlanar(90, 70)
	rgba := src.ToImage()
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, rgba, &jpeg.Options{Quality: 95}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeToPlanar(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decoding stdlib output: %v", err)
	}
	if got.Width != 90 || got.Height != 70 {
		t.Fatalf("dims %dx%d", got.Width, got.Height)
	}
	if psnr := planePSNR(src, got); psnr < 30 {
		t.Errorf("PSNR vs original %.1f dB, want >= 30", psnr)
	}
}

// TestStdlibDecodesOurs feeds our encoder's output to the stdlib decoder and
// compares pixel-level agreement with our own decoder.
func TestStdlibDecodesOurs(t *testing.T) {
	src := gradientPlanar(64, 64)
	for _, tc := range []struct {
		name string
		opts PixelEncodeOptions
	}{
		{"q90_420", PixelEncodeOptions{Quality: 90, Subsampling: Sub420}},
		{"q75_444", PixelEncodeOptions{Quality: 75, Subsampling: Sub444}},
		{"optimized", PixelEncodeOptions{Quality: 90, Subsampling: Sub420, EncodeOptions: EncodeOptions{OptimizeHuffman: true}}},
		{"restart", PixelEncodeOptions{Quality: 90, Subsampling: Sub420, EncodeOptions: EncodeOptions{RestartInterval: 4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := EncodePixels(&buf, src, &tc.opts); err != nil {
				t.Fatal(err)
			}
			stdImg, err := jpeg.Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("stdlib decode: %v", err)
			}
			ours, err := DecodeToPlanar(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			// Different IDCT and upsampling implementations may differ by a
			// few levels; require close pixel agreement on luma.
			std := FromImage(stdImg)
			if psnr := planePSNR(std, ours); psnr < 30 {
				t.Errorf("stdlib-vs-ours PSNR %.1f dB, want >= 30", psnr)
			}
		})
	}
}

func TestMarkerPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	im := randomCoeffImage(rng, 32, 32, false, Sub420)
	im.AddMarker(0xE5, []byte("p3-secret-locator"))
	im.AddMarker(mCOM, []byte("a comment"))
	var buf bytes.Buffer
	if err := EncodeCoeffs(&buf, im, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Markers) != 2 {
		t.Fatalf("%d markers survived, want 2", len(got.Markers))
	}
	if got.Markers[0].Marker != 0xE5 || string(got.Markers[0].Data) != "p3-secret-locator" {
		t.Error("APP5 marker corrupted")
	}
	if n := got.StripMarkers(); n != 2 {
		t.Errorf("StripMarkers removed %d, want 2", n)
	}
	var buf2 bytes.Buffer
	if err := EncodeCoeffs(&buf2, got, nil); err != nil {
		t.Fatal(err)
	}
	got2, err := Decode(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Only the default JFIF APP0 remains.
	if len(got2.Markers) != 1 || got2.Markers[0].Marker != mAPP0 {
		t.Errorf("markers after strip = %v", got2.Markers)
	}
}

func TestDecodeConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	im := randomCoeffImage(rng, 123, 77, false, Sub420)
	var buf bytes.Buffer
	if err := EncodeCoeffs(&buf, im, &EncodeOptions{Progressive: true}); err != nil {
		t.Fatal(err)
	}
	w, h, nc, prog, err := DecodeConfig(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if w != 123 || h != 77 || nc != 3 || !prog {
		t.Errorf("config = %d %d %d %v", w, h, nc, prog)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"not_jpeg":     []byte("PNG\r\n"),
		"soi_only":     {0xFF, 0xD8},
		"bad_marker":   {0xFF, 0xD8, 0x12, 0x34},
		"eoi_only":     {0xFF, 0xD8, 0xFF, 0xD9},
		"sos_no_sof":   {0xFF, 0xD8, 0xFF, 0xDA, 0x00, 0x06, 0x01, 0x01, 0x00, 0x00},
		"short_seglen": {0xFF, 0xD8, 0xFF, 0xDB, 0x00, 0x01},
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeTruncatedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	im := randomCoeffImage(rng, 64, 64, false, Sub420)
	var buf bytes.Buffer
	if err := EncodeCoeffs(&buf, im, nil); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cutting the stream inside entropy data should either fail or decode
	// partially — never panic.
	for _, frac := range []float64{0.5, 0.8, 0.95} {
		n := int(float64(len(full)) * frac)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic decoding %d/%d bytes: %v", n, len(full), r)
				}
			}()
			_, _ = Decode(bytes.NewReader(full[:n]))
		}()
	}
}

func TestEncodeValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeCoeffs(&buf, &CoeffImage{}, nil); err == nil {
		t.Error("empty image must not encode")
	}
	rng := rand.New(rand.NewSource(13))
	im := randomCoeffImage(rng, 16, 16, false, Sub444)
	im.Components[0].Blocks[0][5] = 5000 // out of AC range
	if err := EncodeCoeffs(&buf, im, nil); err == nil {
		t.Error("out-of-range AC must not encode")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("unexpected error: %v", err)
	}
	// A DC difference past category 11 between DC values within 16 bits
	// fails in the scan: the encode must fail before it writes a byte.
	big := randomCoeffImage(rng, 512, 512, false, Sub444)
	big.Components[0].Blocks[len(big.Components[0].Blocks)-1][0] = 30000
	for _, optimize := range []bool{false, true} {
		buf.Reset()
		err := EncodeCoeffs(&buf, big, &EncodeOptions{OptimizeHuffman: optimize})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("optimize=%v: DC difference past category 11: err %v", optimize, err)
		}
		if buf.Len() != 0 {
			t.Errorf("optimize=%v: failed encode wrote %d bytes", optimize, buf.Len())
		}
	}
	// A DC ramp whose every difference fits category 11 but whose values
	// pass 16 bits, which 16-bit decoders cannot hold: refused under both
	// table choices.
	ramp := randomCoeffImage(rng, 256, 8, true, Sub444)
	for i := range ramp.Components[0].Blocks {
		ramp.Components[0].Blocks[i] = Block{0: int32(2000 * i)}
	}
	for _, optimize := range []bool{false, true} {
		buf.Reset()
		err := EncodeCoeffs(&buf, ramp, &EncodeOptions{OptimizeHuffman: optimize})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("optimize=%v: DC past 16 bits: err %v", optimize, err)
		}
		if buf.Len() != 0 {
			t.Errorf("optimize=%v: failed encode wrote %d bytes", optimize, buf.Len())
		}
	}
	im2 := randomCoeffImage(rng, 16, 16, false, Sub444)
	im2.Quant[0] = nil
	if err := EncodeCoeffs(&buf, im2, nil); err == nil {
		t.Error("missing quant table must not encode")
	}
}

func TestSubsamplingDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sub := range []Subsampling{Sub444, Sub420, Sub422, Sub440} {
		im := randomCoeffImage(rng, 32, 32, false, sub)
		got, err := im.DetectSubsampling()
		if err != nil {
			t.Fatalf("%v: %v", sub, err)
		}
		if got != sub {
			t.Errorf("detected %v, want %v", got, sub)
		}
	}
	gray := randomCoeffImage(rng, 32, 32, true, Sub444)
	if got, err := gray.DetectSubsampling(); err != nil || got != Sub444 {
		t.Errorf("gray: %v %v", got, err)
	}
	if Sub420.String() != "4:2:0" || Sub444.String() != "4:4:4" {
		t.Error("subsampling String() wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	im := randomCoeffImage(rng, 32, 32, false, Sub420)
	im.AddMarker(0xE1, []byte("x"))
	cp := im.Clone()
	cp.Components[0].Blocks[0][0] = 999
	cp.Quant[0][0] = 77
	cp.Markers[0].Data[0] = 'y'
	if im.Components[0].Blocks[0][0] == 999 {
		t.Error("blocks aliased after Clone")
	}
	if im.Quant[0][0] == 77 {
		t.Error("quant tables aliased after Clone")
	}
	if im.Markers[0].Data[0] == 'y' {
		t.Error("markers aliased after Clone")
	}
}

func TestCloneInto(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randomCoeffImage(rng, 48, 32, false, Sub420)
	a.AddMarker(0xE1, []byte("x"))

	// Reuse path: same geometry keeps block storage, copies values.
	dst := randomCoeffImage(rng, 48, 32, false, Sub420)
	prevBlocks := dst.Components[0].Blocks
	got := a.CloneInto(dst)
	if got != dst {
		t.Fatal("CloneInto did not return dst")
	}
	if &prevBlocks[0] != &dst.Components[0].Blocks[0] {
		t.Error("same-geometry CloneInto reallocated block storage")
	}
	for ci := range a.Components {
		for bi := range a.Components[ci].Blocks {
			if dst.Components[ci].Blocks[bi] != a.Components[ci].Blocks[bi] {
				t.Fatal("CloneInto copied blocks incorrectly")
			}
		}
	}
	// No aliasing with the source.
	dst.Components[0].Blocks[0][0] = 999
	dst.Quant[0][0] = 77
	dst.Markers[0].Data[0] = 'y'
	if a.Components[0].Blocks[0][0] == 999 || a.Quant[0][0] == 77 || a.Markers[0].Data[0] == 'y' {
		t.Error("CloneInto aliased source storage")
	}

	// Geometry change: grows cleanly and matches Clone.
	b := randomCoeffImage(rng, 96, 64, false, Sub444)
	grown := b.CloneInto(dst)
	want := b.Clone()
	if grown.Width != want.Width || grown.Height != want.Height || len(grown.Components) != len(want.Components) {
		t.Fatal("CloneInto geometry mismatch after reuse")
	}
	for ci := range want.Components {
		if grown.Components[ci].BlocksX != want.Components[ci].BlocksX ||
			grown.Components[ci].BlocksY != want.Components[ci].BlocksY {
			t.Fatal("CloneInto component dims mismatch")
		}
		for bi := range want.Components[ci].Blocks {
			if grown.Components[ci].Blocks[bi] != want.Components[ci].Blocks[bi] {
				t.Fatal("CloneInto blocks mismatch after geometry change")
			}
		}
	}
	if grown.Markers != nil {
		t.Error("CloneInto kept stale markers across reuse")
	}

	// nil dst falls back to Clone.
	if c := a.CloneInto(nil); c == nil || c == a {
		t.Error("CloneInto(nil) must allocate a fresh copy")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
