package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"p3/internal/dataset"
	"p3/internal/imaging"
	"p3/internal/jpegx"
)

type benchOp struct {
	name string
	op   imaging.Op
}

// benchOps are the operator shapes a cold view of a w×h photo runs under the
// parameters calibration publishes against the simulated PSP (Catmull-Rom
// behind a σ = 0.5 pre-blur): the thumbnail and the feed rendition, each
// fitted into its box the way a PSP derives them, a same-size view, and the
// repo benchmark's crop query.
func benchOps(w, h int) []benchOp {
	calibrated := PipelineParams{Filter: imaging.CatmullRom, PreBlur: 0.5, Gamma: 1}
	thumbW, thumbH := imaging.FitWithin(w, h, 130, 130)
	feedW, feedH := imaging.FitWithin(w, h, 720, 720)
	return []benchOp{
		{"thumb130", calibrated.Instantiate(thumbW, thumbH)},
		{"feed720", calibrated.Instantiate(feedW, feedH)},
		{"same-size", calibrated.Instantiate(w, h)},
		{"crop200x150", imaging.Compose{imaging.Crop{X: 32, Y: 32, W: 160, H: 120}, calibrated.Instantiate(200, 150)}},
	}
}

// benchSecret is a decoded secret part the benchmarks reconstruct from.
type benchSecret struct {
	name      string
	w, h      int
	threshold int
	sec       *jpegx.CoeffImage
	noisy     bool
}

// noisyNatural is dataset.Natural plus σ = 20 Gaussian noise per sample,
// clamped: a stand-in for a heavily textured photo, whose secret part is
// denser than a smooth scene's.
func noisyNatural(seed int64, w, h int) *jpegx.PlanarImage {
	img := dataset.Natural(seed, w, h)
	rng := rand.New(rand.NewSource(seed))
	for _, p := range img.Planes {
		for i, v := range p {
			p[i] = clampf(v + 20*rng.NormFloat64())
		}
	}
	return img
}

// benchSecrets splits q92 4:2:0 encodes of a natural scene at two sizes, and
// of the noisy scene at three thresholds (about 1.8, 7 and 25 non-zero
// coefficients per block at T = 15, 5 and 1), keeping the secret parts.
func benchSecrets(tb testing.TB) []benchSecret {
	tb.Helper()
	secret := func(img *jpegx.PlanarImage, threshold int) *jpegx.CoeffImage {
		im, err := img.ToCoeffs(92, jpegx.Sub420)
		if err != nil {
			tb.Fatal(err)
		}
		_, sec, err := Split(im, threshold)
		if err != nil {
			tb.Fatal(err)
		}
		return sec
	}
	var out []benchSecret
	for _, sz := range [][2]int{{512, 384}, {1600, 1200}} {
		out = append(out, benchSecret{fmt.Sprintf("natural%dx%d-T15", sz[0], sz[1]), sz[0], sz[1], 15, secret(dataset.Natural(1, sz[0], sz[1]), 15), false})
	}
	noisy := noisyNatural(1, 1600, 1200)
	for _, threshold := range []int{15, 5, 1} {
		out = append(out, benchSecret{fmt.Sprintf("noisy1600x1200-T%d", threshold), 1600, 1200, threshold, secret(noisy, threshold), true})
	}
	return out
}

var benchSink *jpegx.PlanarImage

// BenchmarkSecretPlanesReconstruct times Eq. (2)'s secret side from the
// decoded secret part to the reconstructed rendition — the effective
// secret's derivation plus Reconstruct — for every benchSecrets source and
// benchOps shape (the crop query on the natural scenes only). It calls only
// DeriveSecretPlanesPool and Reconstruct, so the same file runs against an
// older checkout for a before/after table.
func BenchmarkSecretPlanesReconstruct(b *testing.B) {
	for _, src := range benchSecrets(b) {
		for _, tc := range benchOps(src.w, src.h) {
			if src.noisy && tc.name == "crop200x150" {
				continue
			}
			ow, oh, err := imaging.OutputSize(tc.op, src.w, src.h)
			if err != nil {
				b.Fatal(err)
			}
			pub := jpegx.NewPlanarImage(ow, oh, 3)
			b.Run(src.name+"/"+tc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if benchSink, err = DeriveSecretPlanesPool(src.sec, src.threshold, nil).Reconstruct(pub, tc.op); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestThumbnailReconstructAllocation bounds what a thumbnail view of a
// 1600×1200 photo allocates on the secret side — derivation plus
// Reconstruct to 130×98 — at 10 MB. Materialising the secret's
// full-resolution planes alone would take 23 MB.
func TestThumbnailReconstructAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes a 1600×1200 photo")
	}
	im, err := dataset.Natural(1, 1600, 1200).ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		t.Fatal(err)
	}
	_, sec, err := Split(im, 15)
	if err != nil {
		t.Fatal(err)
	}
	op := benchOps(1600, 1200)[0].op
	pub := jpegx.NewPlanarImage(130, 98, 3)
	run := func() {
		if _, err := DeriveSecretPlanesPool(sec, 15, nil).Reconstruct(pub, op); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up anything lazily initialised
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if mb > 10 {
		t.Errorf("derive + Reconstruct of 1600×1200 to 130×98 allocated %.1f MB, want <= 10", mb)
	}
	t.Logf("derive + Reconstruct of 1600×1200 to 130×98: %.2f MB", mb)
}
