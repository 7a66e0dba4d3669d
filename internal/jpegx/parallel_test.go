package jpegx

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"p3/internal/work"
)

// The band-parallel paths must be byte-identical to their sequential
// counterparts: parallelism is a performance knob, never an output change.

// TestEncodeParallelStatsIdentical also runs the sequential pass on a
// caller's token buffer (EncodeOptions.Tokens), reused across the cases.
func TestEncodeParallelStatsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tokens []uint32
	for _, tc := range []struct {
		w, h int
		gray bool
		sub  Subsampling
	}{
		{128, 96, false, Sub420},
		{64, 64, false, Sub444},
		{80, 56, true, Sub444},
		{8, 8, false, Sub420}, // single MCU row: fewer bands than workers
	} {
		im := randomCoeffImage(rng, tc.w, tc.h, tc.gray, tc.sub)
		var seq, par bytes.Buffer
		if err := EncodeCoeffs(&seq, im, &EncodeOptions{OptimizeHuffman: true}); err != nil {
			t.Fatal(err)
		}
		pool := work.New(4)
		if err := EncodeCoeffs(&par, im, &EncodeOptions{OptimizeHuffman: true, Workers: pool}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq.Bytes(), par.Bytes()) {
			t.Errorf("%dx%d gray=%v sub=%v: parallel encode differs from sequential", tc.w, tc.h, tc.gray, tc.sub)
		}
		var own bytes.Buffer
		if err := EncodeCoeffs(&own, im, &EncodeOptions{OptimizeHuffman: true, Tokens: &tokens}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq.Bytes(), own.Bytes()) || cap(tokens) == 0 {
			t.Errorf("%dx%d gray=%v sub=%v: encode on the caller's token buffer differs or dropped it", tc.w, tc.h, tc.gray, tc.sub)
		}
	}
}

func TestDecodeIntoReuseMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var scratch DecoderScratch
	var dst CoeffImage
	// Alternate geometries and table sets through one scratch + dst; any
	// state leaking across decodes would diverge from the fresh decode.
	for trial := 0; trial < 6; trial++ {
		im := randomCoeffImage(rng, 32+16*(trial%3), 24+8*(trial%4), trial%2 == 0, Sub420)
		var buf bytes.Buffer
		if err := EncodeCoeffs(&buf, im, &EncodeOptions{OptimizeHuffman: trial%2 == 0}); err != nil {
			t.Fatal(err)
		}
		fresh, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		reused, err := DecodeInto(bytes.NewReader(buf.Bytes()), &dst, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !coeffImagesEqual(fresh, reused) {
			t.Fatalf("trial %d: DecodeInto with reused scratch differs from Decode", trial)
		}
	}
}

func TestToPlanarPoolIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	im := randomCoeffImage(rng, 120, 88, false, Sub420)
	seq := im.ToPlanar()
	par := im.ToPlanarInto(nil, nil, work.New(4))
	if seq.Width != par.Width || seq.Height != par.Height || len(seq.Planes) != len(par.Planes) {
		t.Fatal("geometry mismatch")
	}
	for pi := range seq.Planes {
		for i := range seq.Planes[pi] {
			if seq.Planes[pi][i] != par.Planes[pi][i] {
				t.Fatalf("plane %d sample %d: %v != %v", pi, i, seq.Planes[pi][i], par.Planes[pi][i])
			}
		}
	}
}

// TestToLumaIntoMatchesToPlanar: ToLumaInto, run through one destination
// and one scratch over alternating geometries and layouts — gray, 4:2:0,
// 4:2:2, 4:4:4, and a frame whose luma is the subsampled component — gives
// ToPlanar's first plane bit for bit, as a one-plane image in dst.
func TestToLumaIntoMatchesToPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var luma PlanarImage
	var ps PlanarScratch
	for trial := 0; trial < 10; trial++ {
		w, h := 40+24*(trial%3), 24+16*(trial%4)+trial%2
		var im *CoeffImage
		switch trial % 5 {
		case 0:
			im = randomCoeffImage(rng, w, h, true, Sub444)
		case 4:
			// Chroma sampled 2×2 against luma's 1×1: the luma component is
			// the one ToPlanar upsamples.
			im = randomCoeffImage(rng, w, h, false, Sub444)
			im.Components[1].H, im.Components[1].V = 2, 2
			mcusX, mcusY := im.mcuDims()
			for ci := range im.Components {
				c := &im.Components[ci]
				c.BlocksX, c.BlocksY = mcusX*c.H, mcusY*c.V
				blocks := make([]Block, c.BlocksX*c.BlocksY)
				copy(blocks, c.Blocks)
				c.Blocks = blocks
			}
		default:
			im = randomCoeffImage(rng, w, h, false, []Subsampling{Sub420, Sub422, Sub444}[trial%5-1])
		}
		want := im.ToPlanar()
		got := im.ToLumaInto(&luma, &ps)
		if got != &luma || got.Width != want.Width || got.Height != want.Height || len(got.Planes) != 1 || len(got.Planes[0]) != len(want.Planes[0]) {
			t.Fatalf("trial %d: ToLumaInto gave a %dx%dx%d image, want %dx%dx1 in dst",
				trial, got.Width, got.Height, len(got.Planes), want.Width, want.Height)
		}
		for i, v := range want.Planes[0] {
			if math.Float64bits(got.Planes[0][i]) != math.Float64bits(v) {
				t.Fatalf("trial %d: ToLumaInto sample %d = %v, ToPlanar %v", trial, i, got.Planes[0][i], v)
			}
		}
	}
}

// TestIntoVariantsReuseMatchFresh: ToPlanarInto and ToCoeffsInto, run through
// one destination and one set of temporaries over alternating geometries,
// gray and colour, 4:2:0 and 4:4:4, give the samples and coefficients of a
// fresh ToPlanar and ToCoeffs, whatever the buffers held before.
func TestIntoVariantsReuseMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var planes PlanarImage
	var ps PlanarScratch
	var coeffs CoeffImage
	var down []float64
	for trial := 0; trial < 8; trial++ {
		sub := []Subsampling{Sub420, Sub444}[trial%2]
		im := randomCoeffImage(rng, 40+24*(trial%3), 24+16*(trial%4), trial%3 == 2, sub)
		want := im.ToPlanar()
		got := im.ToPlanarInto(&planes, &ps, work.New(trial%3+1))
		if got != &planes || got.Width != want.Width || got.Height != want.Height || len(got.Planes) != len(want.Planes) {
			t.Fatalf("trial %d: ToPlanarInto gave a %dx%dx%d image, want %dx%dx%d in dst",
				trial, got.Width, got.Height, len(got.Planes), want.Width, want.Height, len(want.Planes))
		}
		for pi := range want.Planes {
			for i, v := range want.Planes[pi] {
				if math.Float64bits(got.Planes[pi][i]) != math.Float64bits(v) {
					t.Fatalf("trial %d: ToPlanarInto plane %d sample %d = %v, ToPlanar %v", trial, pi, i, got.Planes[pi][i], v)
				}
			}
		}
		wantCo, err := want.ToCoeffs(90, sub)
		if err != nil {
			t.Fatal(err)
		}
		gotCo, err := got.ToCoeffsInto(&coeffs, 90, sub, &down)
		if err != nil {
			t.Fatal(err)
		}
		var wantJPEG, gotJPEG bytes.Buffer
		if err := EncodeCoeffs(&wantJPEG, wantCo, nil); err != nil {
			t.Fatal(err)
		}
		if err := EncodeCoeffs(&gotJPEG, gotCo, nil); err != nil {
			t.Fatal(err)
		}
		if gotCo != &coeffs || !coeffImagesEqual(wantCo, gotCo) || !bytes.Equal(wantJPEG.Bytes(), gotJPEG.Bytes()) {
			t.Fatalf("trial %d: ToCoeffsInto differs from ToCoeffs", trial)
		}
	}
}
