package imaging

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"p3/internal/jpegx"
)

func randomImage(rng *rand.Rand, w, h, planes int) *jpegx.PlanarImage {
	img := jpegx.NewPlanarImage(w, h, planes)
	for _, p := range img.Planes {
		for i := range p {
			p[i] = rng.Float64() * 255
		}
	}
	return img
}

func maxAbsDiff(a, b *jpegx.PlanarImage) float64 {
	var m float64
	for pi := range a.Planes {
		for i := range a.Planes[pi] {
			d := math.Abs(a.Planes[pi][i] - b.Planes[pi][i])
			if d > m {
				m = d
			}
		}
	}
	return m
}

// TestOpLinearity is the property that P3's Eq. (2) reconstruction rests on:
// for every operator claiming linearity, A(αx + βy) == αA(x) + βA(y).
func TestOpLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := []Op{
		Identity{},
		Resize{W: 17, H: 11, Filter: Box},
		Resize{W: 17, H: 11, Filter: Triangle},
		Resize{W: 23, H: 31, Filter: CatmullRom},
		Resize{W: 9, H: 40, Filter: Lanczos3},
		Resize{W: 64, H: 64, Filter: Lanczos3}, // upscale
		Crop{X: 3, Y: 5, W: 20, H: 16},
		GaussianBlur{Sigma: 1.3},
		Sharpen{Sigma: 0.8, Amount: 0.7},
		Compose{Resize{W: 20, H: 20, Filter: CatmullRom}, Sharpen{Sigma: 0.6, Amount: 0.5}},
		Compose{Crop{X: 8, Y: 8, W: 24, H: 24}, Resize{W: 12, H: 12, Filter: Triangle}},
	}
	for _, op := range ops {
		if !op.Linear() {
			t.Errorf("%s must report Linear()", op)
			continue
		}
		x := randomImage(rng, 40, 48, 3)
		y := randomImage(rng, 40, 48, 3)
		alpha, beta := 0.7, -1.3
		comb := x.Clone()
		for pi := range comb.Planes {
			for i := range comb.Planes[pi] {
				comb.Planes[pi][i] = alpha*x.Planes[pi][i] + beta*y.Planes[pi][i]
			}
		}
		lhs := op.Apply(comb)
		ax, ay := op.Apply(x), op.Apply(y)
		rhs := ax.Clone()
		for pi := range rhs.Planes {
			for i := range rhs.Planes[pi] {
				rhs.Planes[pi][i] = alpha*ax.Planes[pi][i] + beta*ay.Planes[pi][i]
			}
		}
		if d := maxAbsDiff(lhs, rhs); d > 1e-9 {
			t.Errorf("%s: linearity violated, max diff %g", op, d)
		}
	}
	if (Gamma{G: 2.2}).Linear() {
		t.Error("gamma must not claim linearity")
	}
}

func TestResizeDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := randomImage(rng, 100, 60, 3)
	for _, f := range Filters() {
		dst := Resize{W: 37, H: 81, Filter: f}.Apply(src)
		if dst.Width != 37 || dst.Height != 81 {
			t.Errorf("%s: got %dx%d", f.Name, dst.Width, dst.Height)
		}
	}
}

// TestResizeConstantPreserved: resampling a constant image with a normalized
// kernel must reproduce the constant exactly (partition of unity).
func TestResizeConstantPreserved(t *testing.T) {
	src := jpegx.NewPlanarImage(50, 41, 1)
	for i := range src.Planes[0] {
		src.Planes[0][i] = 173
	}
	for _, f := range Filters() {
		for _, dims := range [][2]int{{25, 20}, {13, 7}, {99, 83}, {1, 1}} {
			dst := Resize{W: dims[0], H: dims[1], Filter: f}.Apply(src)
			for i, v := range dst.Planes[0] {
				if math.Abs(v-173) > 1e-9 {
					t.Fatalf("%s %v: sample %d = %v, want 173", f.Name, dims, i, v)
				}
			}
		}
	}
}

func TestResizeIdentityWhenSameSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randomImage(rng, 30, 30, 1)
	dst := Resize{W: 30, H: 30, Filter: Lanczos3}.Apply(src)
	if d := maxAbsDiff(src, dst); d != 0 {
		t.Errorf("same-size resize changed pixels, max diff %g", d)
	}
	dst.Planes[0][0] = -1
	if src.Planes[0][0] == -1 {
		t.Error("same-size resize aliases source")
	}
}

func TestResizeDownUpsampleSmooth(t *testing.T) {
	// A smooth ramp should survive half-size→full-size round trip closely.
	src := jpegx.NewPlanarImage(64, 64, 1)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			src.Planes[0][y*64+x] = float64(x) * 4
		}
	}
	small := Resize{W: 32, H: 32, Filter: CatmullRom}.Apply(src)
	back := Resize{W: 64, H: 64, Filter: CatmullRom}.Apply(small)
	var mse float64
	for i := range src.Planes[0] {
		d := src.Planes[0][i] - back.Planes[0][i]
		mse += d * d
	}
	mse /= float64(len(src.Planes[0]))
	if mse > 4 {
		t.Errorf("round-trip MSE %.2f too high for a smooth ramp", mse)
	}
}

func TestCrop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randomImage(rng, 40, 30, 3)
	c := Crop{X: 5, Y: 7, W: 10, H: 12}
	dst := c.Apply(src)
	if dst.Width != 10 || dst.Height != 12 {
		t.Fatalf("got %dx%d", dst.Width, dst.Height)
	}
	for pi := range src.Planes {
		for y := 0; y < 12; y++ {
			for x := 0; x < 10; x++ {
				want := src.Planes[pi][(y+7)*40+x+5]
				got := dst.Planes[pi][y*10+x]
				if got != want {
					t.Fatalf("plane %d (%d,%d): got %v want %v", pi, x, y, got, want)
				}
			}
		}
	}
	// Out-of-bounds crops clamp.
	edge := Crop{X: 35, Y: 25, W: 100, H: 100}.Apply(src)
	if edge.Width != 5 || edge.Height != 5 {
		t.Errorf("clamped crop %dx%d, want 5x5", edge.Width, edge.Height)
	}
}

// TestOutputSize: OutputSize predicts Apply's dimensions for every operator
// that has something to produce, and errors exactly where Apply would panic.
func TestOutputSize(t *testing.T) {
	src := randomImage(rand.New(rand.NewSource(5)), 40, 30, 1)
	for _, op := range []Op{
		Identity{},
		Crop{X: 35, Y: 25, W: 100, H: 100},
		Resize{W: 17, H: 9, Filter: Box},
		GaussianBlur{Sigma: 1},
		Compose{Crop{X: 8, Y: 8, W: 24, H: 16}, Resize{W: 12, H: 8, Filter: Triangle}, Gamma{G: 2}},
		Compose{Resize{W: 80, H: 60, Filter: Box}, Crop{X: 70, Y: 50, W: 30, H: 30}},
	} {
		w, h, err := OutputSize(op, src.Width, src.Height)
		if err != nil {
			t.Errorf("%s: %v", op, err)
			continue
		}
		if got := op.Apply(src); got.Width != w || got.Height != h {
			t.Errorf("%s: OutputSize says %dx%d, Apply produced %dx%d", op, w, h, got.Width, got.Height)
		}
	}
	for _, op := range []Op{
		Crop{X: 40, Y: 0, W: 5, H: 5},
		Crop{X: 0, Y: 30, W: 5, H: 5},
		Crop{X: 4, Y: 4, W: 0, H: 5},
		Crop{X: -9, Y: 0, W: 9, H: 5},
		Resize{W: 0, H: 10, Filter: Box},
		Compose{Resize{W: 20, H: 15, Filter: Box}, Crop{X: 20, Y: 0, W: 5, H: 5}},
		GaussianBlur{Sigma: math.NaN()},
		GaussianBlur{Sigma: math.Inf(1)},
		GaussianBlur{Sigma: math.Inf(-1)},
		GaussianBlur{Sigma: maxBlurRadius/3.0 + 0.01}, // radius maxBlurRadius+1
		Compose{Resize{W: 20, H: 15, Filter: Box}, Sharpen{Sigma: math.NaN(), Amount: 0.5}},
		Sharpen{Sigma: maxBlurRadius/3.0 + 0.01, Amount: 0.5},
		Sharpen{Sigma: 1, Amount: math.Inf(-1)},
		Sharpen{Sigma: 1, Amount: math.NaN()},
		Gamma{G: 0},
		Gamma{G: -1},
		Gamma{G: math.NaN()},
		Gamma{G: math.Inf(1)},
	} {
		if _, _, err := OutputSize(op, src.Width, src.Height); err == nil {
			t.Errorf("%s of a 40x30 image accepted", op)
		}
	}
	// The largest σ the bound admits still applies.
	if _, _, err := OutputSize(GaussianBlur{Sigma: maxBlurRadius / 3.0}, 40, 30); err != nil {
		t.Errorf("σ at the radius bound refused: %v", err)
	}
}

// TestCropClampedPastIntRange: a far edge beyond the int range lies past the
// image, so the rectangle clamps to it instead of wrapping round to a
// negative edge and missing it; one that misses stays refused.
func TestCropClampedPastIntRange(t *testing.T) {
	for _, tc := range []struct {
		in, want Crop
	}{
		{Crop{X: 5, Y: 5, W: math.MaxInt, H: 10}, Crop{X: 5, Y: 5, W: 715, H: 10}},
		{Crop{X: 100, Y: 0, W: 1e18, H: math.MaxInt}, Crop{X: 100, Y: 0, W: 620, H: 540}},
		{Crop{X: math.MaxInt, Y: 0, W: math.MaxInt, H: 10}, Crop{X: 720, Y: 0, W: 0, H: 10}},
		{Crop{X: -9, Y: 0, W: math.MinInt, H: 10}, Crop{X: 0, Y: 0, W: 0, H: 10}},
	} {
		if got := tc.in.Clamped(720, 540); got != tc.want {
			t.Errorf("%s.Clamped(720, 540) = %s, want %s", tc.in, got, tc.want)
		}
		w, h, err := OutputSize(tc.in, 720, 540)
		if empty := tc.want.W == 0 || tc.want.H == 0; empty != (err != nil) || !empty && (w != tc.want.W || h != tc.want.H) {
			t.Errorf("OutputSize(%s, 720, 540) = %dx%d, %v; want %s", tc.in, w, h, err, tc.want)
		}
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	f := func(sigmaRaw uint8) bool {
		sigma := 0.1 + float64(sigmaRaw)/32
		k := GaussianBlur{Sigma: sigma}.Kernel1D()
		var sum float64
		for _, v := range k {
			sum += v
		}
		return math.Abs(sum-1) < 1e-12 && len(k)%2 == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGaussianBlurSmooths(t *testing.T) {
	// An impulse must spread and keep total mass.
	src := jpegx.NewPlanarImage(21, 21, 1)
	src.Planes[0][10*21+10] = 1000
	dst := GaussianBlur{Sigma: 2}.Apply(src)
	var sum float64
	for _, v := range dst.Planes[0] {
		sum += v
	}
	if math.Abs(sum-1000) > 1e-6 {
		t.Errorf("mass not preserved: %v", sum)
	}
	if dst.Planes[0][10*21+10] >= 1000 {
		t.Error("impulse did not spread")
	}
	if dst.Planes[0][10*21+10] <= dst.Planes[0][0] {
		t.Error("center should remain the maximum")
	}
}

func TestSharpenIncreasesContrast(t *testing.T) {
	// A step edge should overshoot after unsharp masking.
	src := jpegx.NewPlanarImage(32, 8, 1)
	for y := 0; y < 8; y++ {
		for x := 16; x < 32; x++ {
			src.Planes[0][y*32+x] = 200
		}
	}
	dst := Sharpen{Sigma: 1, Amount: 1}.Apply(src)
	overshoot := false
	for i, v := range dst.Planes[0] {
		if v > 200+1 || v < -1 {
			overshoot = true
			_ = i
		}
	}
	if !overshoot {
		t.Error("unsharp mask produced no overshoot on a step edge")
	}
}

func TestGammaInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := randomImage(rng, 16, 16, 3)
	g := Gamma{G: 2.2}
	inv, ok := any(g).(Invertible)
	if !ok {
		t.Fatal("Gamma must be Invertible")
	}
	back := inv.Inverse().Apply(g.Apply(src))
	if d := maxAbsDiff(src, back); d > 1e-9 {
		t.Errorf("gamma inverse error %g", d)
	}
}

func TestFitWithin(t *testing.T) {
	cases := []struct{ sw, sh, mw, mh, ww, wh int }{
		{1440, 1080, 720, 720, 720, 540},
		{1080, 1440, 720, 720, 540, 720},
		{500, 500, 720, 720, 500, 500}, // never upscale
		{4000, 4000, 130, 130, 130, 130},
		{4000, 1000, 130, 130, 130, 33},
		{3, 10000, 75, 75, 1, 75},
	}
	for _, c := range cases {
		w, h := FitWithin(c.sw, c.sh, c.mw, c.mh)
		if w != c.ww || h != c.wh {
			t.Errorf("FitWithin(%d,%d,%d,%d) = %d,%d want %d,%d", c.sw, c.sh, c.mw, c.mh, w, h, c.ww, c.wh)
		}
	}
}

func TestFilterByName(t *testing.T) {
	for _, f := range Filters() {
		got, err := FilterByName(f.Name)
		if err != nil || got.Name != f.Name {
			t.Errorf("FilterByName(%q): %v", f.Name, err)
		}
	}
	if _, err := FilterByName("nope"); err == nil {
		t.Error("expected error for unknown filter")
	}
}

// TestAddClamp holds the reconstruction epilogue to its definition, bit for
// bit: addClamp(d, s) is addInto(d, s, 1) followed by Clamp, over values
// either side of both bounds, ±0, ±Inf and NaN.
func TestAddClamp(t *testing.T) {
	vals := []float64{-5, 300, 0, math.Copysign(0, -1), 255, 255.0000001, 0.5, -1e-300, 1e6, -1e6, math.Inf(1), math.Inf(-1), math.NaN()}
	n := len(vals)
	got := jpegx.NewPlanarImage(n, n, 1)
	src := jpegx.NewPlanarImage(n, n, 1)
	for i := range got.Planes[0] {
		got.Planes[0][i], src.Planes[0][i] = vals[i/n], vals[i%n]
	}
	want := got.Clone()
	addInto(want, src, 1)
	Clamp(want)
	addClamp(got.Planes[0], src.Planes[0])
	if i, bad := diffBits(got.Planes[0], want.Planes[0]); bad {
		t.Errorf("%g + %g: addClamp gave %g, addInto + Clamp %g", vals[i/n], vals[i%n], got.Planes[0][i], want.Planes[0][i])
	}
	over := jpegx.NewPlanarImage(2, 1, 1)
	over.Planes[0][0], over.Planes[0][1] = -5, 300
	if Clamp(over); over.Planes[0][0] != 0 || over.Planes[0][1] != 255 {
		t.Errorf("clamp gave %v", over.Planes[0])
	}
}

func TestComposeStringAndIdentity(t *testing.T) {
	c := Compose{Resize{W: 10, H: 10, Filter: Box}, Crop{X: 0, Y: 0, W: 5, H: 5}}
	if c.String() == "" || !c.Linear() {
		t.Error("compose metadata wrong")
	}
	withGamma := Compose{Resize{W: 10, H: 10, Filter: Box}, Gamma{G: 2}}
	if withGamma.Linear() {
		t.Error("compose containing gamma must be non-linear")
	}
	rng := rand.New(rand.NewSource(7))
	src := randomImage(rng, 12, 12, 1)
	id := Identity{}.Apply(src)
	if d := maxAbsDiff(src, id); d != 0 {
		t.Error("identity changed pixels")
	}
}
