package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p3/internal/jpegx"
)

// The reference kernels below are the naive loops that define the
// operators: a tap-by-tap clamped convolution per axis for the blur, one
// weighted sum per output for the resample, and Clone + addInto + addInto for
// the unsharp mask. resampleRows and resampleCols reproduce their summation
// order bit for bit; every Op, run through ApplyPlanes, agrees with them to
// within 1e-9 of the largest input sample.

func refConvolveH(src, dst []float64, w, h int, k []float64) {
	r := len(k) / 2
	for y := 0; y < h; y++ {
		row := src[y*w : y*w+w]
		orow := dst[y*w : y*w+w]
		for x := 0; x < w; x++ {
			var acc float64
			for i, kv := range k {
				sx := clampIdx(x+i-r, 0, w-1)
				acc += kv * row[sx]
			}
			orow[x] = acc
		}
	}
}

func refConvolveV(src, dst []float64, w, h int, k []float64) {
	r := len(k) / 2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc float64
			for i, kv := range k {
				sy := clampIdx(y+i-r, 0, h-1)
				acc += kv * src[sy*w+x]
			}
			dst[y*w+x] = acc
		}
	}
}

func refResampleRows(src []float64, sw, sh int, dst []float64, dw int, weights []weightRange) {
	for y := 0; y < sh; y++ {
		srow := src[y*sw : y*sw+sw]
		drow := dst[y*dw : y*dw+dw]
		for x := 0; x < dw; x++ {
			wr := &weights[x]
			var acc float64
			for j, w := range wr.w {
				acc += w * srow[wr.start+j]
			}
			drow[x] = acc
		}
	}
}

func refResampleCols(src []float64, w, sh int, dst []float64, dh int, weights []weightRange) {
	for y := 0; y < dh; y++ {
		wr := &weights[y]
		drow := dst[y*w : y*w+w]
		for x := 0; x < w; x++ {
			var acc float64
			for j, wt := range wr.w {
				acc += wt * src[(wr.start+j)*w+x]
			}
			drow[x] = acc
		}
	}
}

func refGaussianBlur(g GaussianBlur, src *jpegx.PlanarImage) *jpegx.PlanarImage {
	k := g.Kernel1D()
	dst := jpegx.NewPlanarImage(src.Width, src.Height, len(src.Planes))
	tmp := make([]float64, src.Width*src.Height)
	for pi := range src.Planes {
		refConvolveH(src.Planes[pi], tmp, src.Width, src.Height, k)
		refConvolveV(tmp, dst.Planes[pi], src.Width, src.Height, k)
	}
	return dst
}

func refResize(r Resize, src *jpegx.PlanarImage) *jpegx.PlanarImage {
	mid := jpegx.NewPlanarImage(r.W, src.Height, len(src.Planes))
	wH := buildWeights(src.Width, r.W, r.Filter)
	for pi := range src.Planes {
		refResampleRows(src.Planes[pi], src.Width, src.Height, mid.Planes[pi], r.W, wH)
	}
	dst := jpegx.NewPlanarImage(r.W, r.H, len(src.Planes))
	wV := buildWeights(src.Height, r.H, r.Filter)
	for pi := range mid.Planes {
		refResampleCols(mid.Planes[pi], r.W, src.Height, dst.Planes[pi], r.H, wV)
	}
	return dst
}

// refSharpen is out = src + a·src − a·blurred, with blurred the σ-blur of src.
func refSharpen(s Sharpen, src, blurred *jpegx.PlanarImage) *jpegx.PlanarImage {
	out := src.Clone()
	addInto(out, src, s.Amount)
	addInto(out, blurred, -s.Amount)
	return out
}

// addInto accumulates src into dst (dst += scale·src), the naive sum the
// sharpen and the reconstruction epilogue (addClamp) are held to. It panics
// if the shapes differ.
func addInto(dst, src *jpegx.PlanarImage, scale float64) {
	if dst.Width != src.Width || dst.Height != src.Height || len(dst.Planes) != len(src.Planes) {
		panic(fmt.Sprintf("addInto: shape mismatch %dx%dx%d vs %dx%dx%d",
			dst.Width, dst.Height, len(dst.Planes), src.Width, src.Height, len(src.Planes)))
	}
	for pi := range dst.Planes {
		d, s := dst.Planes[pi], src.Planes[pi]
		for i := range d {
			d[i] += scale * s[i]
		}
	}
}

// refApply is the naive definition of op: each stage in turn, through the
// reference loops above. Crop is its own definition (a row copy), and so is
// Gamma (pointwise).
func refApply(op Op, src *jpegx.PlanarImage) *jpegx.PlanarImage {
	switch o := op.(type) {
	case Compose:
		out := src.Clone()
		for _, stage := range o {
			out = refApply(stage, out)
		}
		return out
	case GaussianBlur:
		if o.Sigma <= 0 {
			return src.Clone()
		}
		return refGaussianBlur(o, src)
	case Resize:
		if o.W == src.Width && o.H == src.Height {
			return src.Clone()
		}
		return refResize(o, src)
	case Sharpen:
		if o.Amount == 0 || o.Sigma <= 0 {
			return src.Clone()
		}
		return refSharpen(o, src, refGaussianBlur(GaussianBlur{Sigma: o.Sigma}, src))
	default:
		return op.Apply(src)
	}
}

// kernelPlane fills a w×h plane with values that make a summation-order
// slip visible: a wide dynamic range of both signs (the sums reconstruction
// runs through these kernels are far outside [0,255]), plus exact and
// negative zeros, whose sum depends on the leading 0 + k·s.
func kernelPlane(rng *rand.Rand, w, h int) []float64 {
	p := make([]float64, w*h)
	for i := range p {
		switch rng.Intn(16) {
		case 0:
			p[i] = 0
		case 1:
			p[i] = math.Copysign(0, -1)
		case 2:
			p[i] = (rng.Float64() - 0.5) * 1e9
		default:
			p[i] = (rng.Float64() - 0.5) * 1024
		}
	}
	return p
}

func negZeroPlane(w, h int) []float64 {
	p := make([]float64, w*h)
	for i := range p {
		p[i] = math.Copysign(0, -1)
	}
	return p
}

// diffBits returns the first index at which a and b differ as bit patterns.
func diffBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, true
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, true
		}
	}
	return 0, false
}

// checkOperator holds op.Apply(src) to refApply(op, src): same shape, and
// every sample within 1e-9 of the largest input magnitude (at least 1), the
// most re-associating a sum of products can move it.
func checkOperator(t testing.TB, op Op, src *jpegx.PlanarImage) {
	t.Helper()
	got, want := op.Apply(src), refApply(op, src)
	if got.Width != want.Width || got.Height != want.Height || len(got.Planes) != len(want.Planes) {
		t.Fatalf("%s of %dx%d: shape %dx%dx%d, reference %dx%dx%d", op, src.Width, src.Height,
			got.Width, got.Height, len(got.Planes), want.Width, want.Height, len(want.Planes))
	}
	scale := 1.0
	for _, p := range src.Planes {
		for _, v := range p {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	for pi := range got.Planes {
		for i, v := range got.Planes[pi] {
			if gap := math.Abs(v - want.Planes[pi][i]); !(gap <= 1e-9*scale) {
				t.Fatalf("%s of %dx%d: plane %d sample %d = %g, reference %g (gap %.3g of scale %.3g)",
					op, src.Width, src.Height, pi, i, v, want.Planes[pi][i], gap, scale)
			}
		}
	}
}

func checkResample(t testing.TB, src []float64, sw, sh, dw, dh int, f Filter) {
	t.Helper()
	wH := buildWeights(sw, dw, f)
	got, want := make([]float64, dw*sh), make([]float64, dw*sh)
	resampleRows(src, sw, sh, got, dw, wH)
	refResampleRows(src, sw, sh, want, dw, wH)
	if i, bad := diffBits(got, want); bad {
		t.Fatalf("resampleRows %s %dx%d→%d wide: sample %d = %x, reference %x", f.Name, sw, sh, dw, i, got[i], want[i])
	}
	wV := buildWeights(sh, dh, f)
	got, want = make([]float64, sw*dh), make([]float64, sw*dh)
	resampleCols(src, sw, sh, got, dh, wV)
	refResampleCols(src, sw, sh, want, dh, wV)
	if i, bad := diffBits(got, want); bad {
		t.Fatalf("resampleCols %s %dx%d→%d high: sample %d = %x, reference %x", f.Name, sw, sh, dh, i, got[i], want[i])
	}
}

// TestKernelsBitIdenticalToReference pins the resample loops to the naive
// ones: same bits out for the same bits in, over sizes that are all edge
// (1×1), barely interior, not a multiple of any block width, and
// production-sized; over every resampling filter both up and down; and over
// weight rows of 1–7 taps and wider, which take different accumulateRows
// paths. A whole Resize folds to exactly these weights, so it matches too.
func TestKernelsBitIdenticalToReference(t *testing.T) {
	sizes := [][2]int{{1, 1}, {3, 5}, {4, 2}, {6, 14}, {17, 9}, {130, 98}, {513, 383}}
	rng := rand.New(rand.NewSource(19))
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		planes := [][]float64{kernelPlane(rng, w, h), negZeroPlane(w, h)}
		for _, f := range Filters() {
			for _, to := range [][2]int{{w/3 + 1, h/3 + 1}, {2*w + 1, 2*h + 3}, {w, h/2 + 1}, {1, 1}} {
				for _, p := range planes {
					checkResample(t, p, w, h, to[0], to[1], f)
				}
			}
		}
		// Blur-shaped rows: 5 and 7 taps (σ = 0.5, 1) and 15 (σ = 2.3).
		for _, sigma := range []float64{0.5, 1, 2.3} {
			k := GaussianBlur{Sigma: sigma}.Kernel1D()
			got, want := make([]float64, w*h), make([]float64, w*h)
			wH, wV := blurWeights(w, k), blurWeights(h, k)
			resampleRows(planes[0], w, h, got, w, wH)
			refResampleRows(planes[0], w, h, want, w, wH)
			if i, bad := diffBits(got, want); bad {
				t.Fatalf("resampleRows blur σ=%g %dx%d: sample %d = %x, reference %x", sigma, w, h, i, got[i], want[i])
			}
			resampleCols(planes[0], w, h, got, h, wV)
			refResampleCols(planes[0], w, h, want, h, wV)
			if i, bad := diffBits(got, want); bad {
				t.Fatalf("resampleCols blur σ=%g %dx%d: sample %d = %x, reference %x", sigma, w, h, i, got[i], want[i])
			}
		}
	}
	src := &jpegx.PlanarImage{Width: 130, Height: 98}
	for i := 0; i < 3; i++ {
		src.Planes = append(src.Planes, kernelPlane(rng, 130, 98))
	}
	for _, f := range Filters() {
		for _, r := range []Resize{{W: 59, H: 44, Filter: f}, {W: 200, H: 151, Filter: f}} {
			assertSameImage(t, r.String(), r.Apply(src), refResize(r, src))
		}
	}
}

// TestOperatorsMatchNaiveReference holds every operator shape the product
// builds, applied through ApplyPlanes, to its naive definition: blur, resize
// down, up, to one sample and to its own size, crops inside and over the
// edge, sharpen alone, mid-chain and opening a chain, and the nested shape
// the proxy hands over. Sizes run from 1×1 to production-sized; samples mix
// ±0 with values up to 1e9, far outside [0, 255] as reconstruction's
// difference images are.
func TestOperatorsMatchNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sz := range [][2]int{{1, 1}, {3, 5}, {17, 9}, {130, 98}} {
		w, h := sz[0], sz[1]
		src := &jpegx.PlanarImage{Width: w, Height: h, Planes: [][]float64{
			kernelPlane(rng, w, h), kernelPlane(rng, w, h), negZeroPlane(w, h),
		}}
		down := Resize{W: w/3 + 1, H: h/3 + 1, Filter: CatmullRom}
		ops := []Op{
			Identity{},
			Compose{},
			GaussianBlur{Sigma: 0.5},
			GaussianBlur{Sigma: 1},
			GaussianBlur{Sigma: 2.3},
			Resize{W: 2*w + 1, H: 2*h + 3, Filter: CatmullRom},
			Resize{W: w, H: h, Filter: Lanczos3},
			Resize{W: 1, H: 1, Filter: Triangle},
			Crop{X: w / 4, Y: h / 4, W: w/2 + 1, H: h/2 + 1},
			Crop{X: w - 1, Y: h / 2, W: 40, H: 40},
			Sharpen{Sigma: 1, Amount: 0.5},
			Compose{GaussianBlur{Sigma: 0.5}, Resize{W: 2*w/3 + 1, H: 2*h/3 + 1, Filter: Lanczos3}, Sharpen{Sigma: 1, Amount: 0.5}, down},
			Compose{Sharpen{Sigma: 0.8, Amount: -0.3}, Crop{X: w / 3, Y: 0, W: w, H: h}, down, Gamma{G: 1.1}},
			Compose{Crop{X: w / 2, Y: h / 2, W: 200, H: 200}, Compose{GaussianBlur{Sigma: 0.5}, Resize{W: 7, H: 5, Filter: CatmullRom}}},
		}
		for _, f := range Filters() {
			ops = append(ops, Resize{W: w/3 + 1, H: h/3 + 1, Filter: f})
		}
		for _, op := range ops {
			if _, _, err := OutputSize(op, w, h); err != nil {
				t.Fatalf("%s of %dx%d: %v", op, w, h, err)
			}
			checkOperator(t, op, src)
		}
	}
}

func assertSameImage(t *testing.T, name string, got, want *jpegx.PlanarImage) {
	t.Helper()
	if got.Width != want.Width || got.Height != want.Height || len(got.Planes) != len(want.Planes) {
		t.Fatalf("%s: shape %dx%dx%d, reference %dx%dx%d", name,
			got.Width, got.Height, len(got.Planes), want.Width, want.Height, len(want.Planes))
	}
	for pi := range got.Planes {
		if i, bad := diffBits(got.Planes[pi], want.Planes[pi]); bad {
			t.Fatalf("%s: plane %d sample %d = %x, reference %x", name, pi, i, got.Planes[pi][i], want.Planes[pi][i])
		}
	}
}

// TestSharpenFusedBitIdentical: the one-pass unsharp mask equals Clone +
// addInto + addInto over the same blur, bit for bit.
func TestSharpenFusedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, sz := range [][2]int{{1, 1}, {5, 3}, {130, 98}} {
		src := &jpegx.PlanarImage{Width: sz[0], Height: sz[1]}
		for i := 0; i < 3; i++ {
			src.Planes = append(src.Planes, kernelPlane(rng, sz[0], sz[1]))
		}
		for _, s := range []Sharpen{{Sigma: 1, Amount: 0.5}, {Sigma: 1, Amount: 1}, {Sigma: 0.8, Amount: -0.3}, {Sigma: 2.3, Amount: 1e-3}} {
			assertSameImage(t, s.String(), s.Apply(src), refSharpen(s, src, GaussianBlur{Sigma: s.Sigma}.Apply(src)))
		}
	}
}

// FuzzSeparableKernels drives the resample loops (bit for bit) and the blur,
// alone and folded into a resize (within checkOperator's bound), with
// fuzzer-chosen dimensions (1–97), σ, target size and filter against their
// references.
func FuzzSeparableKernels(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(16), uint8(0))
	f.Add(int64(2), uint8(16), uint8(8), uint8(5), uint8(40), uint8(32), uint8(2))
	f.Add(int64(3), uint8(96), uint8(96), uint8(200), uint8(1), uint8(74), uint8(3))
	f.Add(int64(4), uint8(4), uint8(60), uint8(3), uint8(120), uint8(255), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, wRaw, hRaw, dwRaw, dhRaw, sigmaRaw, filterRaw uint8) {
		w, h := 1+int(wRaw)%97, 1+int(hRaw)%97
		dw, dh := 1+int(dwRaw), 1+int(dhRaw)
		sigma := 0.05 + float64(sigmaRaw)/32 // up to 51 taps
		filter := Filters()[int(filterRaw)%len(Filters())]
		src := kernelPlane(rand.New(rand.NewSource(seed)), w, h)
		checkResample(t, src, w, h, dw, dh, filter)
		img := &jpegx.PlanarImage{Width: w, Height: h, Planes: [][]float64{src}}
		blur := GaussianBlur{Sigma: sigma}
		checkOperator(t, blur, img)
		checkOperator(t, Compose{blur, Resize{W: dw, H: dh, Filter: filter}}, img)
	})
}

var benchSink *jpegx.PlanarImage

func benchImage(w, h, planes int) *jpegx.PlanarImage {
	return randomImage(rand.New(rand.NewSource(1)), w, h, planes)
}

// BenchmarkGaussianBlur times the blur of one full-resolution three-plane
// photo at the two kernel widths the product instantiates, the naive loops
// (ref) beside ApplyPlanes (new) in the same run.
func BenchmarkGaussianBlur(b *testing.B) {
	src := benchImage(1600, 1200, 3)
	for _, sigma := range []float64{0.5, 1} {
		g := GaussianBlur{Sigma: sigma}
		b.Run(fmt.Sprintf("sigma=%g/ref", sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = refGaussianBlur(g, src)
			}
		})
		b.Run(fmt.Sprintf("sigma=%g/new", sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = g.Apply(src)
			}
		})
	}
}

// BenchmarkResize times the two static renditions a PSP derives from a
// 1600×1200 upload, under the calibrated filter and the PSP's own.
func BenchmarkResize(b *testing.B) {
	src := benchImage(1600, 1200, 3)
	for _, f := range []Filter{CatmullRom, Lanczos3} {
		for _, to := range [][2]int{{720, 540}, {130, 98}} {
			r := Resize{W: to[0], H: to[1], Filter: f}
			name := fmt.Sprintf("%s/%dx%d", f.Name, to[0], to[1])
			b.Run(name+"/ref", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = refResize(r, src)
				}
			})
			b.Run(name+"/new", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = r.Apply(src)
				}
			})
		}
	}
}
