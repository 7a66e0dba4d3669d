package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p3/internal/jpegx"
)

// randomFreqPlanes builds a w×h image of three components — luma at full
// size, chroma at cw×ch — whose frequency rows hold each coefficient with
// probability density, at magnitudes up to 1e6 of both signs, hanging-over
// edge blocks included.
func randomFreqPlanes(rng *rand.Rand, w, h, cw, ch int, density float64) *FreqPlanes {
	f := &FreqPlanes{Width: w, Height: h}
	for _, sz := range [][2]int{{w, h}, {cw, ch}, {cw, ch}} {
		p := FreqPlane{W: sz[0], H: sz[1]}
		for y := 0; y < (p.H+7)&^7; y++ {
			row := FreqRow{Y: y}
			for x := 0; x < (p.W+7)&^7; x++ {
				if rng.Float64() < density {
					row.X = append(row.X, int32(x))
					row.Val = append(row.Val, (rng.Float64()-0.5)*2e6)
				}
			}
			if len(row.X) > 0 {
				p.Rows = append(p.Rows, row)
			}
		}
		f.Planes = append(f.Planes, p)
	}
	return f
}

// denseFromFreq materialises what ApplyFreq reads: each component's
// coefficients through the float 8×8 IDCT (jpegx.IDCT8x8) into its own
// plane, upsampled to the full grid tap by tap (jpegx.UpsampleTap).
func denseFromFreq(f *FreqPlanes) *jpegx.PlanarImage {
	out := jpegx.NewPlanarImage(f.Width, f.Height, len(f.Planes))
	for pi, p := range f.Planes {
		fw := (p.W + 7) &^ 7
		grid := make([]float64, fw*((p.H+7)&^7))
		for _, r := range p.Rows {
			for i, x := range r.X {
				grid[r.Y*fw+int(x)] = r.Val[i]
			}
		}
		plane := make([]float64, p.W*p.H)
		var coeffs, pix [64]float64
		for y := 0; y < p.H; y += 8 {
			for x := 0; x < p.W; x += 8 {
				for k := range coeffs {
					coeffs[k] = grid[(y+k/8)*fw+x+k%8]
				}
				jpegx.IDCT8x8(&coeffs, &pix)
				for j := 0; j < min(8, p.H-y); j++ {
					copy(plane[(y+j)*p.W+x:][:min(8, p.W-x)], pix[8*j:])
				}
			}
		}
		for y := 0; y < f.Height; y++ {
			ny, fy := jpegx.UpsampleTap(y, p.H, f.Height)
			for x := 0; x < f.Width; x++ {
				nx, fx := jpegx.UpsampleTap(x, p.W, f.Width)
				near := 0.75*plane[ny*p.W+nx] + 0.25*plane[ny*p.W+fx]
				far := 0.75*plane[fy*p.W+nx] + 0.25*plane[fy*p.W+fx]
				out.Planes[pi][y*f.Width+x] = 0.75*near + 0.25*far
			}
		}
	}
	return out
}

// randomOnto builds a w×h three-plane image to add a reconstruction onto:
// samples in [-100, 355], so the sum lands either side of both clamp bounds,
// with a sprinkling of ±0 and NaN.
func randomOnto(rng *rand.Rand, w, h int) *jpegx.PlanarImage {
	out := jpegx.NewPlanarImage(w, h, 3)
	for _, p := range out.Planes {
		for i := range p {
			switch rng.Intn(40) {
			case 0:
				p[i] = math.Copysign(0, -1)
			case 1:
				p[i] = math.NaN()
			default:
				p[i] = rng.Float64()*455 - 100
			}
		}
	}
	return out
}

// TestApplyFreqMatchesDense holds the composed IDCT and the sparse scatter to
// their definition: ApplyFreq(op, f, nil) agrees with the naive per-stage
// chain (refApply) over f's materialised full-grid planes to within 1e-9 of
// the largest sample, over sizes from 1×1 up, 4:2:0, 4:4:4 and odd chroma,
// densities from empty to full, and the operator shapes a cold view runs.
// The reconstruction epilogue equals its oracle bit for bit:
// ApplyFreq(op, f, onto) is Clamp(addInto(ApplyFreq(op, f, nil), onto)),
// whether the fold runs whole or stops at a Sharpen, and onto is untouched.
func TestApplyFreqMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, sz := range [][4]int{{1, 1, 1, 1}, {9, 7, 5, 4}, {17, 9, 17, 9}, {130, 98, 65, 49}, {103, 75, 52, 38}} {
		w, h, cw, ch := sz[0], sz[1], sz[2], sz[3]
		for _, density := range []float64{0, 0.02, 0.3, 1} {
			f := randomFreqPlanes(rng, w, h, cw, ch, density)
			dense := denseFromFreq(f)
			scale := 1.0
			for _, p := range dense.Planes {
				for _, v := range p {
					scale = math.Max(scale, math.Abs(v))
				}
			}
			for _, op := range []Op{
				Identity{},
				Resize{W: w/3 + 1, H: h/3 + 1, Filter: CatmullRom},
				Resize{W: 2*w + 1, H: 2*h + 3, Filter: Lanczos3},
				Crop{X: w / 2, Y: h / 3, W: w, H: h},
				Compose{GaussianBlur{Sigma: 0.5}, Resize{W: w/2 + 1, H: h/2 + 1, Filter: CatmullRom}, Sharpen{Sigma: 1, Amount: 0.5}},
				Compose{Crop{X: w / 4, Y: h / 4, W: w/2 + 1, H: h/2 + 1}, Compose{GaussianBlur{Sigma: 0.5}, Resize{W: 7, H: 5, Filter: Box}}},
			} {
				name := fmt.Sprintf("%s of %dx%d (chroma %dx%d) at density %g", op, w, h, cw, ch, density)
				got, want := ApplyFreq(op, f, nil), refApply(op, dense)
				if got.Width != want.Width || got.Height != want.Height || len(got.Planes) != len(want.Planes) {
					t.Fatalf("%s: shape %dx%dx%d, reference %dx%dx%d", name,
						got.Width, got.Height, len(got.Planes), want.Width, want.Height, len(want.Planes))
				}
				onto := randomOnto(rng, got.Width, got.Height)
				kept := onto.Clone()
				oracle := got.Clone()
				addInto(oracle, onto, 1)
				Clamp(oracle)
				rec := ApplyFreq(op, f, onto)
				for pi := range rec.Planes {
					if i, bad := diffBits(rec.Planes[pi], oracle.Planes[pi]); bad {
						t.Fatalf("%s: reconstruction plane %d sample %d = %x, Clamp(addInto) %x", name, pi, i, rec.Planes[pi][i], oracle.Planes[pi][i])
					}
					if i, bad := diffBits(onto.Planes[pi], kept.Planes[pi]); bad {
						t.Fatalf("%s: ApplyFreq wrote onto plane %d sample %d", name, pi, i)
					}
				}
				for pi := range got.Planes {
					for i, v := range got.Planes[pi] {
						if gap := math.Abs(v - want.Planes[pi][i]); !(gap <= 1e-9*scale) {
							t.Fatalf("%s: plane %d sample %d = %g, reference %g (gap %.3g of scale %.3g)",
								name, pi, i, v, want.Planes[pi][i], gap, scale)
						}
					}
				}
			}
		}
	}
}

// TestApplyFreqOntoShapeMismatchPanics: adding the reconstruction onto an
// image of another shape is a caller's bug (Reconstruct checks the shape
// first), so it panics rather than reading past a plane.
func TestApplyFreqOntoShapeMismatchPanics(t *testing.T) {
	f := randomFreqPlanes(rand.New(rand.NewSource(31)), 16, 16, 8, 8, 0.1)
	for _, onto := range []*jpegx.PlanarImage{jpegx.NewPlanarImage(16, 15, 3), jpegx.NewPlanarImage(16, 16, 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("onto %dx%dx%d: ApplyFreq did not panic", onto.Width, onto.Height, len(onto.Planes))
				}
			}()
			ApplyFreq(Identity{}, f, onto)
		}()
	}
}

var weightsSink []weightRange

// BenchmarkComposeWeights times what a cold view of a 1600×1200 4:2:0 photo
// pays to build its weights — the fold, then for the luma plane and the
// shared chroma one the upsample, the IDCT and the transposed horizontal
// rows the scatter reads — under the calibrated pre-blur and Catmull-Rom, at
// the thumbnail, the feed rendition, a same-size view and the benchmark's
// crop query. This is why they are built per request and not cached.
func BenchmarkComposeWeights(b *testing.B) {
	pipeline := func(w, h int) Op { return Compose{GaussianBlur{Sigma: 0.5}, Resize{W: w, H: h, Filter: CatmullRom}} }
	for _, tc := range []struct {
		name string
		op   Op
	}{
		{"thumb130", pipeline(130, 98)},
		{"feed720", pipeline(720, 540)},
		{"same-size", pipeline(1600, 1200)},
		{"crop200x150", Compose{Crop{X: 32, Y: 32, W: 160, H: 120}, pipeline(200, 150)}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				full, _ := FoldSeparable(tc.op, 1600, 1200)
				for _, sz := range [][2]int{{1600, 1200}, {800, 600}} {
					ps := full.Upsampled(sz[0], sz[1]).overFrequencies()
					weightsSink = transposeWeights(ps.h, ps.srcW)
				}
			}
		})
	}
}
