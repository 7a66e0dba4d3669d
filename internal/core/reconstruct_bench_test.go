package core

import (
	"testing"

	"p3/internal/dataset"
	"p3/internal/imaging"
	"p3/internal/jpegx"
)

type benchOp struct {
	name string
	op   imaging.Op
}

// benchOps are the operator shapes a cold view of a 1600×1200 photo runs
// under the parameters calibration publishes against the simulated PSP
// (Catmull-Rom behind a σ = 0.5 pre-blur): the thumbnail, the feed rendition,
// a same-size view, and the repo benchmark's crop query.
func benchOps() []benchOp {
	calibrated := PipelineParams{Filter: imaging.CatmullRom, PreBlur: 0.5, Gamma: 1}
	return []benchOp{
		{"130x98", calibrated.Instantiate(130, 98)},
		{"720x540", calibrated.Instantiate(720, 540)},
		{"identity-size", calibrated.Instantiate(1600, 1200)},
		{"crop", imaging.Compose{imaging.Crop{X: 32, Y: 32, W: 160, H: 120}, calibrated.Instantiate(200, 150)}},
	}
}

var benchSink *jpegx.PlanarImage

// BenchmarkSecretPlanesReconstruct times Eq. (2)'s secret side from the
// effective secret's coefficients to the reconstructed rendition, on a
// 1600×1200 4:2:0 photo: full-grid is the test oracle (materialise full-grid
// planes, unshift, apply op, add), composed is SecretPlanes.Reconstruct,
// which reads each component at its own resolution. Both sides pay the same
// IDCT.
func BenchmarkSecretPlanesReconstruct(b *testing.B) {
	const w, h, threshold = 1600, 1200, 15
	im, err := dataset.Natural(1, w, h).ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		b.Fatal(err)
	}
	_, sec, err := Split(im, threshold)
	if err != nil {
		b.Fatal(err)
	}
	eff := EffectiveSecret(sec, threshold, nil)
	for _, tc := range benchOps() {
		ow, oh, err := imaging.OutputSize(tc.op, w, h)
		if err != nil {
			b.Fatal(err)
		}
		pub := jpegx.NewPlanarImage(ow, oh, 3)
		b.Run(tc.name+"/full-grid", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := tc.op.Apply(unshift(eff.ToPlanar()))
				imaging.AddInto(out, pub, 1)
				benchSink = imaging.Clamp(out)
			}
		})
		b.Run(tc.name+"/composed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if benchSink, err = (&SecretPlanes{d: eff.ToNativePlanesPool(0, nil)}).Reconstruct(pub, tc.op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var weightsSink imaging.Separable

// BenchmarkComposeWeights times what a cold view pays to compose its
// operator's weights — the luma pair and the chroma pair of a 1600×1200
// 4:2:0 photo — which is why they are built per request and not cached.
func BenchmarkComposeWeights(b *testing.B) {
	for _, tc := range benchOps() {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				full, _ := imaging.FoldSeparable(tc.op, 1600, 1200)
				weightsSink = full.Upsampled(800, 600)
			}
		})
	}
}
