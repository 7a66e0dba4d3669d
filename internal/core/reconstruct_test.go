package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"p3/internal/dataset"
	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/work"
)

// naturalImage synthesizes a smooth image with edges and texture, then
// round-trips it through JPEG so tests operate on true quantized
// coefficients.
func naturalImage(t *testing.T, rng *rand.Rand, w, h int, sub jpegx.Subsampling) *jpegx.CoeffImage {
	t.Helper()
	img := jpegx.NewPlanarImage(w, h, 3)
	cx, cy := float64(w)/2, float64(h)/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			fx, fy := float64(x), float64(y)
			v := 120 + 60*math.Sin(fx/9) + 50*math.Cos(fy/13) + 20*math.Sin((fx+fy)/5)
			if math.Hypot(fx-cx, fy-cy) < float64(min(w, h))/4 {
				v += 55 // a disc "object"
			}
			v += rng.Float64()*8 - 4
			img.Planes[0][i] = clampf(v)
			img.Planes[1][i] = clampf(128 + 40*math.Sin(fx/17))
			img.Planes[2][i] = clampf(128 + 40*math.Cos(fy/23))
		}
	}
	im, err := img.ToCoeffs(92, sub)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func psnr(a, b *jpegx.PlanarImage) float64 {
	var mse float64
	var n int
	for pi := range a.Planes {
		for i := range a.Planes[pi] {
			d := clampf(a.Planes[pi][i]) - clampf(b.Planes[pi][i])
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

// TestPixelReconstructionIdentity: pixel-domain recombination with no PSP
// processing must match the coefficient-domain original nearly exactly
// (float DCT rounding only).
func TestPixelReconstructionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := naturalImage(t, rng, 64, 64, jpegx.Sub444)
	for _, threshold := range []int{1, 15, 100} {
		pub, sec, err := Split(im, threshold)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ReconstructPixels(pub.ToPlanar(), sec, threshold, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := im.ToPlanar()
		if got := psnr(want, rec); got < 55 {
			t.Errorf("T=%d: identity pixel reconstruction PSNR %.1f dB, want >= 55", threshold, got)
		}
	}
}

// TestProcessedReconstruction is the paper's central systems claim (§3.3,
// Eq. (2)): when the PSP applies a known linear operator to the public part,
// applying the same operator to the secret and correction images and adding
// recovers the transformed original almost exactly (~49 dB in the paper).
func TestProcessedReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := naturalImage(t, rng, 96, 80, jpegx.Sub444)
	threshold := 15
	pub, sec, err := Split(im, threshold)
	if err != nil {
		t.Fatal(err)
	}
	ops := []imaging.Op{
		imaging.Resize{W: 48, H: 40, Filter: imaging.Triangle},
		imaging.Resize{W: 48, H: 40, Filter: imaging.Lanczos3},
		imaging.Resize{W: 33, H: 21, Filter: imaging.CatmullRom},
		imaging.Resize{W: 130, H: 108, Filter: imaging.CatmullRom}, // upscale
		imaging.Crop{X: 16, Y: 8, W: 40, H: 48},
		imaging.Compose{
			imaging.Crop{X: 8, Y: 8, W: 64, H: 64},
			imaging.Resize{W: 32, H: 32, Filter: imaging.Lanczos3},
			imaging.Sharpen{Sigma: 1, Amount: 0.5},
		},
		imaging.GaussianBlur{Sigma: 1.1},
	}
	orig := im.ToPlanar()
	for _, op := range ops {
		// What the PSP serves: op applied to the *decoded public part*,
		// clamped to 8-bit as a real server would.
		served := imaging.Clamp(op.Apply(pub.ToPlanar()))
		rec, err := ReconstructPixels(served, sec, threshold, op)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		want := imaging.Clamp(op.Apply(orig))
		if got := psnr(want, rec); got < 40 {
			t.Errorf("%s: processed reconstruction PSNR %.1f dB, want >= 40", op, got)
		}
	}
}

// TestProcessedReconstructionWrongOperator: using the wrong filter should
// still produce a viewable image but measurably worse than the right one.
func TestProcessedReconstructionWrongOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	im := naturalImage(t, rng, 96, 96, jpegx.Sub444)
	threshold := 10
	pub, sec, err := Split(im, threshold)
	if err != nil {
		t.Fatal(err)
	}
	truth := imaging.Resize{W: 48, H: 48, Filter: imaging.Lanczos3}
	wrong := imaging.Resize{W: 48, H: 48, Filter: imaging.Box}
	served := imaging.Clamp(truth.Apply(pub.ToPlanar()))
	want := imaging.Clamp(truth.Apply(im.ToPlanar()))
	recRight, err := ReconstructPixels(served, sec, threshold, truth)
	if err != nil {
		t.Fatal(err)
	}
	recWrong, err := ReconstructPixels(served, sec, threshold, wrong)
	if err != nil {
		t.Fatal(err)
	}
	pRight, pWrong := psnr(want, recRight), psnr(want, recWrong)
	if pRight <= pWrong {
		t.Errorf("right-op PSNR %.1f <= wrong-op PSNR %.1f", pRight, pWrong)
	}
	if pWrong < 15 {
		t.Errorf("wrong-op reconstruction PSNR %.1f dB unexpectedly catastrophic", pWrong)
	}
}

func TestReconstructRejectsNonLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	im := naturalImage(t, rng, 32, 32, jpegx.Sub444)
	pub, sec, err := Split(im, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReconstructPixels(pub.ToPlanar(), sec, 10, imaging.Gamma{G: 2.2})
	if err == nil {
		t.Error("non-linear op must be rejected by ReconstructPixels")
	}
}

// TestReconstructRemapped exercises the §3.3 gamma path: invert the remap,
// reconstruct, re-apply.
func TestReconstructRemapped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := naturalImage(t, rng, 64, 64, jpegx.Sub444)
	threshold := 15
	pub, sec, err := Split(im, threshold)
	if err != nil {
		t.Fatal(err)
	}
	g := imaging.Gamma{G: 1.4}
	// PSP applies gamma only (no resize) to the public part.
	served := imaging.Clamp(g.Apply(pub.ToPlanar()))
	rec, err := ReconstructRemapped(served, sec, threshold, imaging.Identity{}, g)
	if err != nil {
		t.Fatal(err)
	}
	want := imaging.Clamp(g.Apply(im.ToPlanar()))
	if got := psnr(want, rec); got < 25 {
		t.Errorf("gamma remap reconstruction PSNR %.1f dB, want >= 25 (some loss expected)", got)
	}
}

// TestSecretPlanesZeroForFlatSecret: an original with no DC energy and no
// above-threshold ACs has an empty effective secret — no frequency row at
// all — and a difference image of zeros.
func TestSecretPlanesZeroForFlatSecret(t *testing.T) {
	luma, _ := jpegx.StandardQuantTables(90)
	im := &jpegx.CoeffImage{Width: 16, Height: 16}
	im.Quant[0] = &luma
	im.Components = []jpegx.Component{{ID: 1, H: 1, V: 1, TqIndex: 0, BlocksX: 2, BlocksY: 2, Blocks: make([]jpegx.Block, 4)}}
	// All coefficients below threshold: secret is all zeros.
	for bi := range im.Components[0].Blocks {
		im.Components[0].Blocks[bi][1] = 3
	}
	_, sec, err := Split(im, 10)
	if err != nil {
		t.Fatal(err)
	}
	sp := DeriveSecretPlanesPool(sec, 10, nil)
	if rows := sp.f.Planes[0].Rows; len(rows) != 0 {
		t.Fatalf("flat secret holds %d frequency rows, want none", len(rows))
	}
	for i, v := range sp.difference(imaging.Identity{}).Planes[0] {
		if v != 0 {
			t.Fatalf("difference image not zero at %d: %v", i, v)
		}
	}
}

func TestJoinJPEGEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	im := naturalImage(t, rng, 72, 56, jpegx.Sub420)
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, im, nil); err != nil {
		t.Fatal(err)
	}
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	out, err := SplitJPEG(buf.Bytes(), key, &Options{Threshold: 15, OptimizeHuffman: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Threshold != 15 {
		t.Errorf("threshold echoed as %d", out.Threshold)
	}
	joined, err := JoinJPEG(out.PublicJPEG, out.SecretBlob, key)
	if err != nil {
		t.Fatal(err)
	}
	// The joined JPEG must decode to the exact original coefficients.
	got, err := jpegx.Decode(bytes.NewReader(joined))
	if err != nil {
		t.Fatal(err)
	}
	for ci := range im.Components {
		for bi := range im.Components[ci].Blocks {
			if got.Components[ci].Blocks[bi] != im.Components[ci].Blocks[bi] {
				t.Fatal("coefficients corrupted across split/join")
			}
		}
	}
}

func TestJoinProcessedEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := naturalImage(t, rng, 80, 80, jpegx.Sub444)
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, im, nil); err != nil {
		t.Fatal(err)
	}
	key, _ := NewKey()
	out, err := SplitJPEG(buf.Bytes(), key, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the PSP: decode public part, resize, re-encode as JPEG.
	pubIm, err := jpegx.Decode(bytes.NewReader(out.PublicJPEG))
	if err != nil {
		t.Fatal(err)
	}
	op := imaging.Resize{W: 40, H: 40, Filter: imaging.CatmullRom}
	resized := imaging.Clamp(op.Apply(pubIm.ToPlanar()))
	coeffs, err := resized.ToCoeffs(95, jpegx.Sub444)
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	if err := jpegx.EncodeCoeffs(&served, coeffs, nil); err != nil {
		t.Fatal(err)
	}
	// The recipient's side: open the sealed secret part and reconstruct
	// from the served JPEG's pixels.
	threshold, secJPEG, err := OpenSecret(key, out.SecretBlob)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := jpegx.DecodeBytes(secJPEG)
	if err != nil {
		t.Fatal(err)
	}
	servedIm, err := jpegx.DecodeBytes(served.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReconstructPixels(servedIm.ToPlanar(), sec, threshold, op)
	if err != nil {
		t.Fatal(err)
	}
	want := imaging.Clamp(op.Apply(im.ToPlanar()))
	// The served public part was JPEG re-encoded (lossy), so the bar is
	// lower than the known-transform float case but must remain high.
	if got := psnr(want, rec); got < 30 {
		t.Errorf("served-JPEG processed reconstruction PSNR %.1f dB, want >= 30", got)
	}
}

func TestSplitJPEGDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	im := naturalImage(t, rng, 32, 32, jpegx.Sub444)
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, im, nil); err != nil {
		t.Fatal(err)
	}
	key, _ := NewKey()
	out, err := SplitJPEG(buf.Bytes(), key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Threshold != DefaultThreshold {
		t.Errorf("default threshold = %d, want %d", out.Threshold, DefaultThreshold)
	}
	if _, err := SplitJPEG([]byte("junk"), key, nil); err == nil {
		t.Error("junk input must fail")
	}
}

// TestReconstructPixelsPoolMatchesSequential: deriving the effective secret
// banded over a pool and applying an operator equals the sequential
// reconstruction bit for bit.
func TestReconstructPixelsPoolMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	im := naturalImage(t, rng, 96, 80, jpegx.Sub444)
	threshold := 15
	pub, sec, err := Split(im, threshold)
	if err != nil {
		t.Fatal(err)
	}
	pubPix := pub.ToPlanar()
	for i, op := range []imaging.Op{
		imaging.Identity{},
		imaging.Resize{W: 48, H: 40, Filter: imaging.Triangle},
		imaging.Crop{X: 16, Y: 8, W: 40, H: 48},
		imaging.GaussianBlur{Sigma: 1.1},
	} {
		served := op.Apply(pubPix)
		single, err := ReconstructPixels(served, sec, threshold, op)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		banded, err := ReconstructPixelsPool(served, sec, threshold, op, work.New(3))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if pi, j, ok := sameBits(banded, single); !ok {
			t.Fatalf("op %d plane %d sample %d: banded %v, sequential %v", i, pi, j, banded.Planes[pi][j], single.Planes[pi][j])
		}
	}
}

// TestSecretPlanesErrors covers the guard rails of the shared-planes API:
// non-linear operators are rejected (they need the remapped path) and a
// public part whose dimensions don't match the operator's output is caught.
func TestSecretPlanesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := naturalImage(t, rng, 48, 48, jpegx.Sub444)
	pub, sec, err := Split(im, 15)
	if err != nil {
		t.Fatal(err)
	}
	sp := DeriveSecretPlanesPool(sec, 15, nil)
	if _, err := sp.Reconstruct(pub.ToPlanar(), imaging.Gamma{G: 2.2}); err == nil {
		t.Error("non-linear operator accepted")
	}
	op := imaging.Resize{W: 24, H: 24, Filter: imaging.Triangle}
	if _, err := sp.Reconstruct(pub.ToPlanar(), op); err == nil {
		t.Error("mismatched public/operator dimensions accepted")
	}
}

// TestReconstructRejectsPlaneCountMismatch: a hostile PSP may serve a
// grayscale rendition of a colour upload (or the reverse). That is an error
// naming both shapes, not a panic in the add loop.
func TestReconstructRejectsPlaneCountMismatch(t *testing.T) {
	colour := dataset.Natural(9, 64, 48)
	gray := jpegx.NewPlanarImage(64, 48, 1)
	copy(gray.Planes[0], colour.Planes[0])
	for _, tc := range []struct {
		name        string
		secret, pub *jpegx.PlanarImage
		want        string
	}{
		{"gray public, colour secret", colour, gray, "64x48x3 but public part is 64x48x1"},
		{"colour public, gray secret", gray, colour, "64x48x1 but public part is 64x48x3"},
	} {
		im, err := tc.secret.ToCoeffs(92, jpegx.Sub420)
		if err != nil {
			t.Fatal(err)
		}
		_, sec, err := Split(im, 15)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReconstructPixels(tc.pub, sec, 15, imaging.Identity{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// correctionImage is the reference derivation of Eq. (1)'s (Ss − Ss²)·w
// term as its own coefficient image: −2T at every AC position where the
// secret part is negative, zero elsewhere. Production code folds it into the
// secret part's frequency rows (DeriveSecretPlanesPool); the tests keep it
// apart as the oracle.
func correctionImage(sec *jpegx.CoeffImage, threshold int) *jpegx.CoeffImage {
	corr := sec.Clone()
	for ci := range corr.Components {
		for bi := range corr.Components[ci].Blocks {
			c, s := &corr.Components[ci].Blocks[bi], &sec.Components[ci].Blocks[bi]
			*c = jpegx.Block{}
			for k := 1; k < 64; k++ {
				if s[k] < 0 {
					c[k] = int32(-2 * threshold)
				}
			}
		}
	}
	return corr
}

// EffectiveSecret is the reference derivation of the fold SecretPlanes holds,
// as a coefficient image of sec's shape and tables: e[0] = s[0], and for
// k ≥ 1, e[k] = s[k] − 2T where s[k] < 0 and s[k] elsewhere, so that
// y = pub + e coefficient for coefficient. sec is not modified.
func EffectiveSecret(sec *jpegx.CoeffImage, threshold int) *jpegx.CoeffImage {
	eff := sec.Clone()
	for ci := range eff.Components {
		for bi := range eff.Components[ci].Blocks {
			e := &eff.Components[ci].Blocks[bi]
			for k := 1; k < 64; k++ {
				if e[k] < 0 {
					e[k] -= int32(2 * threshold)
				}
			}
		}
	}
	return eff
}

// unshift removes the +128 JPEG level shift that ToPlanar applies, turning
// a decoded plane into a pure linear term.
func unshift(img *jpegx.PlanarImage) *jpegx.PlanarImage {
	for _, p := range img.Planes {
		for i := range p {
			p[i] -= 128
		}
	}
	return img
}

// fullGridDifference is what SecretPlanes.difference is held to: materialise
// the effective secret's difference image at full resolution and apply op to
// it. Each block of EffectiveSecret is dequantised and run through the float
// 8×8 IDCT (jpegx.IDCT8x8) into its component's own plane, which is
// upsampled to the full grid tap by tap (jpegx.UpsampleTap, pinned to the
// decoder's own loop by TestUpsampleTapMatchesUpsamplePlane). The composed
// pass folds the IDCT and the upsample into op's weights instead. op's
// stages themselves are held to their naive definitions in internal/imaging
// (TestOperatorsMatchNaiveReference).
func fullGridDifference(sec *jpegx.CoeffImage, threshold int, op imaging.Op) *jpegx.PlanarImage {
	eff := EffectiveSecret(sec, threshold)
	w, h := eff.Width, eff.Height
	full := jpegx.NewPlanarImage(w, h, len(eff.Components))
	for ci := range eff.Components {
		c := &eff.Components[ci]
		q := eff.Quant[c.TqIndex]
		cw, ch := eff.ComponentSize(ci)
		plane := make([]float64, cw*ch)
		var coeffs, pix [64]float64
		for y := 0; y < ch; y += 8 {
			for x := 0; x < cw; x += 8 {
				b := c.Block(x/8, y/8)
				for k := range coeffs {
					coeffs[k] = float64(b[k]) * float64(q[k])
				}
				jpegx.IDCT8x8(&coeffs, &pix)
				for j := 0; j < min(8, ch-y); j++ {
					copy(plane[(y+j)*cw+x:][:min(8, cw-x)], pix[8*j:])
				}
			}
		}
		for y := 0; y < h; y++ {
			ny, fy := jpegx.UpsampleTap(y, ch, h)
			for x := 0; x < w; x++ {
				nx, fx := jpegx.UpsampleTap(x, cw, w)
				near := 0.75*plane[ny*cw+nx] + 0.25*plane[ny*cw+fx]
				far := 0.75*plane[fy*cw+nx] + 0.25*plane[fy*cw+fx]
				full.Planes[ci][y*w+x] = 0.75*near + 0.25*far
			}
		}
	}
	return op.Apply(full)
}

// fullGridGap is how far the composed difference image lies from
// fullGridDifference, as a fraction of the reference's largest |sample|
// (at least 1): float re-association moves a sum of products by ~1e-16 of
// it, a wrong weight by far more than 1e-9.
func fullGridGap(sec *jpegx.CoeffImage, threshold int, op imaging.Op, composed *jpegx.PlanarImage) float64 {
	want := fullGridDifference(sec, threshold, op)
	scale := 1.0
	for _, p := range want.Planes {
		for _, v := range p {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	return worstGap(want, composed) / scale
}

// twoChainDifference is the reference derivation of Eq. (2)'s secret-side
// term, A·S + A·C: the secret image S = IDCT(x_s) and the correction image
// C = IDCT(corr) each run their own IDCT → upsample → operator chain and are
// summed afterwards, unclamped.
func twoChainDifference(sec *jpegx.CoeffImage, threshold int, op imaging.Op) *jpegx.PlanarImage {
	out := op.Apply(unshift(sec.ToPlanar()))
	addInto(out, op.Apply(unshift(correctionImage(sec, threshold).ToPlanar())))
	return out
}

// difference returns A·U·IDCT(e) for A = op, unclamped: the composed pass
// Reconstruct runs, without its add-and-clamp epilogue.
func (sp *SecretPlanes) difference(op imaging.Op) *jpegx.PlanarImage {
	return imaging.ApplyFreq(op, sp.f, nil)
}

// addInto is dst += src sample by sample, the sum Eq. (2) adds the public
// part with. Shapes must match.
func addInto(dst, src *jpegx.PlanarImage) {
	for pi := range dst.Planes {
		d, s := dst.Planes[pi], src.Planes[pi][:len(dst.Planes[pi])]
		for i := range d {
			d[i] += s[i]
		}
	}
}

// oracleReconstruct is Reconstruct by its definition: the difference image in
// a fresh image, the public part added in one sweep, then a clamping sweep.
func oracleReconstruct(sp *SecretPlanes, publicPix *jpegx.PlanarImage, op imaging.Op) *jpegx.PlanarImage {
	out := sp.difference(op)
	addInto(out, publicPix)
	return imaging.Clamp(out)
}

// sameBits reports the first sample where a and b differ in
// math.Float64bits, or ok when they agree everywhere in one shape.
func sameBits(a, b *jpegx.PlanarImage) (plane, sample int, ok bool) {
	if a.Width != b.Width || a.Height != b.Height || len(a.Planes) != len(b.Planes) {
		return -1, -1, false
	}
	for pi := range a.Planes {
		for i, v := range a.Planes[pi] {
			if math.Float64bits(v) != math.Float64bits(b.Planes[pi][i]) {
				return pi, i, false
			}
		}
	}
	return 0, 0, true
}

// worstGap is the largest sample difference between two images of one shape;
// a shape mismatch is +Inf.
func worstGap(a, b *jpegx.PlanarImage) float64 {
	if a.Width != b.Width || a.Height != b.Height || len(a.Planes) != len(b.Planes) {
		return math.Inf(1)
	}
	var worst float64
	for pi := range a.Planes {
		for i, v := range a.Planes[pi] {
			worst = math.Max(worst, math.Abs(b.Planes[pi][i]-v))
		}
	}
	return worst
}

// TestFusedMatchesTwoChainOracle is the differential test for both folds of
// the secret-side term, run through the path Reconstruct runs. Over natural
// photos, every chroma layout, even and odd geometry, the operator shapes the
// proxy builds, and thresholds down to T = 1, where the secret is dense:
//   - the effective-secret fold: the difference image agrees with the
//     two-chain reference — secret and correction images each through the
//     decoder's fixed-point IDCT — to within half a sample before clamping
//     (they differ only in IDCT rounding);
//   - the composed operator: reading each component's frequency rows, it
//     agrees with the same operator applied to materialised full-grid
//     planes of the float IDCT to within 1e-9 of the largest sample (float
//     re-association only);
//   - the epilogue: Reconstruct, which adds the public part and clamps in
//     the composed pass (or after a Sharpen that stops the fold), equals
//     Clamp(addInto(difference, public)) in math.Float64bits and leaves the
//     public part as it was; so does the gamma path, ReconstructRemapped,
//     against the same oracle between its remaps;
//
// and identity reconstruction keeps its PSNR floor.
func TestFusedMatchesTwoChainOracle(t *testing.T) {
	geometries := [][2]int{
		{104, 76}, // partial MCUs on the bottom edge
		{103, 75}, // odd: the chroma planes upsample to 2·cw − 1
	}
	layouts := []struct {
		name string
		gray bool
		sub  jpegx.Subsampling
	}{
		{"420", false, jpegx.Sub420},
		{"422", false, jpegx.Sub422},
		{"440", false, jpegx.Sub440},
		{"444", false, jpegx.Sub444},
		{"gray", true, jpegx.Sub444},
	}
	// The shape of a calibrated pipeline whose sharpen stops the fold.
	sharpened := imaging.Compose{
		imaging.GaussianBlur{Sigma: 0.8},
		imaging.Resize{W: 40, H: 30, Filter: imaging.Triangle},
		imaging.Sharpen{Sigma: 1, Amount: 0.5},
	}
	for _, g := range geometries {
		w, h := g[0], g[1]
		cases := []struct {
			name string
			op   imaging.Op // maps the planes' resolution to the served one
		}{
			{"identity", imaging.Identity{}},
			{"resize", imaging.Resize{W: 52, H: 38, Filter: imaging.Lanczos3}},
			{"crop-resize", imaging.Compose{
				imaging.Crop{X: 9, Y: 5, W: 64, H: 48},
				imaging.Resize{W: 32, H: 24, Filter: imaging.CatmullRom},
			}},
			{"blur-resize-sharpen", sharpened},
			// The shape proxy.buildOp hands over: a crop, then the calibrated
			// pipeline as a nested Compose. The crop runs off the right and
			// bottom edges and is clamped to them.
			{"edge-crop-nested", imaging.Compose{
				imaging.Crop{X: 41, Y: 29, W: 200, H: 200},
				imaging.Compose{
					imaging.GaussianBlur{Sigma: 0.5},
					imaging.Resize{W: 31, H: 23, Filter: imaging.CatmullRom},
				},
			}},
			{"crop-only", imaging.Crop{X: 17, Y: 11, W: 40, H: 30}},
			{"blur-only", imaging.GaussianBlur{Sigma: 1.1}},
			{"identity-size-resize", imaging.Compose{
				imaging.GaussianBlur{Sigma: 0.5},
				imaging.Resize{W: w, H: h, Filter: imaging.Lanczos3},
			}},
			{"one-axis-resize", imaging.Resize{W: w, H: 40, Filter: imaging.Lanczos3}},
			{"upscale", imaging.Resize{W: 150, H: 110, Filter: imaging.CatmullRom}},
			{"box", imaging.Resize{W: 33, H: 21, Filter: imaging.Box}},
		}
		for seed := int64(1); seed <= 2; seed++ {
			img := dataset.Natural(seed, w, h)
			for _, l := range layouts {
				src := img
				if l.gray {
					src = jpegx.NewPlanarImage(w, h, 1)
					copy(src.Planes[0], img.Planes[0])
				}
				im, err := src.ToCoeffs(92, l.sub)
				if err != nil {
					t.Fatal(err)
				}
				for _, threshold := range []int{1, 5, 20} {
					pub, sec, err := Split(im, threshold)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%dx%d/seed%d/%s/T%d", w, h, seed, l.name, threshold)
					rec, err := ReconstructPixels(pub.ToPlanar(), sec, threshold, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got := psnr(im.ToPlanar(), rec); got < 55 {
						t.Errorf("%s: identity reconstruction PSNR %.1f dB, want >= 55", name, got)
					}
					sp := DeriveSecretPlanesPool(sec, threshold, nil)
					pubPix := pub.ToPlanar()
					for _, tc := range cases {
						served := tc.op.Apply(pubPix)
						kept := served.Clone()
						got, err := sp.Reconstruct(served, tc.op)
						if err != nil {
							t.Fatalf("%s/%s: %v", name, tc.name, err)
						}
						if pi, i, ok := sameBits(got, oracleReconstruct(sp, served, tc.op)); !ok {
							t.Errorf("%s/%s: reconstruction differs from Clamp(addInto(difference, public)) at plane %d sample %d",
								name, tc.name, pi, i)
						}
						if pi, i, ok := sameBits(served, kept); !ok {
							t.Errorf("%s/%s: Reconstruct wrote the public part at plane %d sample %d", name, tc.name, pi, i)
						}
						composed := sp.difference(tc.op)
						if gap := worstGap(twoChainDifference(sec, threshold, tc.op), composed); gap > 0.5 {
							t.Errorf("%s/%s: composed difference image is %.3f samples from the two-chain oracle, want <= 0.5",
								name, tc.name, gap)
						}
						if gap := fullGridGap(sec, threshold, tc.op, composed); !(gap <= 1e-9) {
							t.Errorf("%s/%s: composed difference image is %.3g of its scale from the full-grid operator, want <= 1e-9",
								name, tc.name, gap)
						}
					}
					// The gamma path: the linear half ends in a Sharpen, so its
					// epilogue runs after the fold, between the two remaps.
					g := imaging.Gamma{G: 2.2}
					served := imaging.Clamp(g.Apply(sharpened.Apply(pubPix)))
					kept := served.Clone()
					got, err := ReconstructRemapped(served, sec, threshold, sharpened, g)
					if err != nil {
						t.Fatalf("%s/gamma: %v", name, err)
					}
					want := imaging.Clamp(g.Apply(oracleReconstruct(sp, g.Inverse().Apply(served), sharpened)))
					if pi, i, ok := sameBits(got, want); !ok {
						t.Errorf("%s/gamma: remapped reconstruction differs from its oracle at plane %d sample %d", name, pi, i)
					}
					if pi, i, ok := sameBits(served, kept); !ok {
						t.Errorf("%s/gamma: ReconstructRemapped wrote the public part at plane %d sample %d", name, pi, i)
					}
				}
			}
		}
	}
}

// FuzzComposedOperator holds the composed pass to the full-grid operator on
// geometry nobody wrote a table row for: any size from 1×1 up, every chroma
// layout, and a random crop → blur → resize chain with any stage absent, to
// within 1e-9 of the largest sample (see fullGridGap).
func FuzzComposedOperator(f *testing.F) {
	f.Add(uint8(96), uint8(71), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint8(47), uint8(35))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint8(9), uint8(9), uint8(5), uint8(2), uint8(4), uint8(2))
	f.Add(uint8(16), uint8(8), uint8(1), uint8(1), uint8(3), uint8(2), uint8(200), uint8(200), uint8(12), uint8(1), uint8(90), uint8(3))
	f.Add(uint8(2), uint8(96), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(30), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(64), uint8(1), uint8(3), uint8(1), uint8(60), uint8(0), uint8(5), uint8(1), uint8(0), uint8(3), uint8(1), uint8(96))
	f.Add(uint8(32), uint8(32), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(7), uint8(2), uint8(32), uint8(32))
	layouts := []jpegx.Subsampling{jpegx.Sub420, jpegx.Sub444, jpegx.Sub422, jpegx.Sub440}
	f.Fuzz(func(t *testing.T, rw, rh, layout, crop, cx, cy, cw, ch, sigma, filter, tw, th uint8) {
		w, h := 1+int(rw)%97, 1+int(rh)%97
		src := dataset.Natural(int64(rw)<<8|int64(rh), w, h)
		sub := jpegx.Sub444
		if l := int(layout) % (len(layouts) + 1); l < len(layouts) {
			sub = layouts[l]
		} else {
			src.Planes = src.Planes[:1] // grayscale
		}
		im, err := src.ToCoeffs(90, sub)
		if err != nil {
			t.Fatal(err)
		}
		_, sec, err := Split(im, 10)
		if err != nil {
			t.Fatal(err)
		}
		var op imaging.Compose
		if crop%2 == 1 {
			op = append(op, imaging.Crop{X: int(cx) % w, Y: int(cy) % h, W: 1 + int(cw), H: 1 + int(ch)})
		}
		if s := float64(sigma%32) / 10; s > 0 {
			op = append(op, imaging.GaussianBlur{Sigma: s})
		}
		if tw > 0 && th > 0 {
			op = append(op, imaging.Resize{W: int(tw), H: int(th), Filter: imaging.Filters()[int(filter)%len(imaging.Filters())]})
		}
		composed := DeriveSecretPlanesPool(sec, 10, nil).difference(op)
		if gap := fullGridGap(sec, 10, op, composed); !(gap <= 1e-9) {
			t.Fatalf("%dx%d %s %s: composed is %.3g of its scale from full-grid", w, h, sub, op, gap)
		}
	})
}

// FuzzEffectiveSecret checks the fold DeriveSecretPlanesPool writes against
// its definition on arbitrary blocks and thresholds: the oracle
// EffectiveSecret is sec + correctionImage(sec) coefficient for coefficient
// with every DC untouched; the frequency rows are that image, dequantised,
// laid out coefficient by coefficient (denseFreqPlanes); the derivation
// banded over a pool equals the sequential one; and sec itself is not
// modified.
func FuzzEffectiveSecret(f *testing.F) {
	f.Add([]byte{}, uint16(15), false)
	f.Add([]byte{0x80, 0x00, 0xff, 0xff, 0x00, 0x01, 0x7f, 0xff}, uint16(1), true)
	f.Add(bytes.Repeat([]byte{0xfe, 0x0c, 0x01, 0xf4}, 200), uint16(1022), false)
	f.Fuzz(func(t *testing.T, data []byte, rawT uint16, gray bool) {
		threshold := 1 + int(rawT)%MaxThreshold
		sub := jpegx.Sub420
		if gray {
			sub = jpegx.Sub444
		}
		sec := randomCoeffImage(rand.New(rand.NewSource(1)), 24, 24, sub)
		if gray {
			sec.Components = sec.Components[:1]
		}
		// Overwrite the coefficients, in order, with the fuzz input read as
		// big-endian int16s; blocks past the end of the input stay zero.
		for ci := range sec.Components {
			for bi := range sec.Components[ci].Blocks {
				b := &sec.Components[ci].Blocks[bi]
				*b = jpegx.Block{}
				for k := 0; k < 64 && len(data) >= 2; k++ {
					b[k] = int32(int16(binary.BigEndian.Uint16(data)))
					data = data[2:]
				}
			}
		}
		before := sec.Clone()
		seq := DeriveSecretPlanesPool(sec, threshold, nil).f
		banded := DeriveSecretPlanesPool(sec, threshold, work.New(3)).f
		eff := EffectiveSecret(sec, threshold)
		corr := correctionImage(sec, threshold)
		for ci := range sec.Components {
			for bi := range sec.Components[ci].Blocks {
				s, e := &sec.Components[ci].Blocks[bi], &eff.Components[ci].Blocks[bi]
				if *s != before.Components[ci].Blocks[bi] {
					t.Fatalf("component %d block %d: input mutated", ci, bi)
				}
				if e[0] != s[0] {
					t.Fatalf("component %d block %d: DC %d became %d", ci, bi, s[0], e[0])
				}
				for k := 0; k < 64; k++ {
					if want := s[k] + corr.Components[ci].Blocks[bi][k]; e[k] != want {
						t.Fatalf("component %d block %d coeff %d: e = %d, want %d (s = %d, T = %d)",
							ci, bi, k, e[k], want, s[k], threshold)
					}
				}
			}
		}
		if !reflect.DeepEqual(seq, denseFreqPlanes(eff)) {
			t.Fatalf("T = %d: frequency rows differ from the effective secret laid out by definition", threshold)
		}
		if !reflect.DeepEqual(banded, seq) {
			t.Fatalf("T = %d: banded derivation differs from sequential", threshold)
		}
	})
}

// denseFreqPlanes lays im out as frequency rows by definition, visiting every
// coefficient of every block the IDCT shows: coefficient (u, v) of block
// (bx, by), dequantised, at row 8·by+v, column 8·bx+u, when it is non-zero.
func denseFreqPlanes(im *jpegx.CoeffImage) *imaging.FreqPlanes {
	f := &imaging.FreqPlanes{Width: im.Width, Height: im.Height, Planes: make([]imaging.FreqPlane, len(im.Components))}
	for ci := range im.Components {
		c, p := &im.Components[ci], &f.Planes[ci]
		q := im.Quant[c.TqIndex]
		p.W, p.H = im.ComponentSize(ci)
		for y := 0; y < (p.H+7)&^7; y++ {
			row := imaging.FreqRow{Y: y}
			for x := 0; x < (p.W+7)&^7; x++ {
				k := 8*(y%8) + x%8
				if v := c.Block(x/8, y/8)[k]; v != 0 {
					row.X = append(row.X, int32(x))
					row.Val = append(row.Val, float64(v)*float64(q[k]))
				}
			}
			if len(row.X) > 0 {
				p.Rows = append(p.Rows, row)
			}
		}
	}
	return f
}
