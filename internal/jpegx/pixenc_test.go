package jpegx

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The encoder's kernels — the multiply-only quantiser, the 2×2 chroma box
// and the row-slice block gather — are held bit for bit to the naive loops
// that define them, kept here as oracles: a division per coefficient, a
// clamped per-sample box and a clamped per-sample gather.

// refQuantizeBlock converts 8×-scaled FDCT8x8Int output to quantized
// integers by dividing, rounding half away from zero.
func refQuantizeBlock(coeffs *[64]int32, q *QuantTable, out *Block) {
	for i := 0; i < 64; i++ {
		d := int64(q[i]) * 8
		r := d >> 1
		if v := int64(coeffs[i]); v >= 0 {
			out[i] = int32((v + r) / d)
		} else {
			out[i] = int32(-((-v + r) / d))
		}
	}
}

// refDownsamplePlane box-averages a w×h plane to cw×ch, every tap clamped.
func refDownsamplePlane(src []float64, w, h, cw, ch int) []float64 {
	dst := make([]float64, cw*ch)
	fx, fy := (w+cw-1)/cw, (h+ch-1)/ch
	for y := 0; y < ch; y++ {
		for x := 0; x < cw; x++ {
			var sum float64
			var n int
			for dy := 0; dy < fy; dy++ {
				sy := y*fy + dy
				if sy >= h {
					sy = h - 1
				}
				for dx := 0; dx < fx; dx++ {
					sx := x*fx + dx
					if sx >= w {
						sx = w - 1
					}
					sum += src[sy*w+sx]
					n++
				}
			}
			dst[y*cw+x] = sum / float64(n)
		}
	}
	return dst
}

// refFDCTPlane level-shifts, pads (clamping every sample index), transforms
// and quantizes (refQuantizeBlock) a component plane into blocks.
func refFDCTPlane(plane []float64, cw, ch, blocksX, blocksY int, q *QuantTable) []Block {
	out := make([]Block, blocksX*blocksY)
	var samples, coeffs [64]int32
	for by := 0; by < blocksY; by++ {
		for bx := 0; bx < blocksX; bx++ {
			for y := 0; y < 8; y++ {
				sy := by*8 + y
				if sy >= ch {
					sy = ch - 1
				}
				for x := 0; x < 8; x++ {
					sx := bx*8 + x
					if sx >= cw {
						sx = cw - 1
					}
					samples[y*8+x] = int32(math.Round(plane[sy*cw+sx] - 128))
				}
			}
			FDCT8x8Int(&samples, &coeffs)
			refQuantizeBlock(&coeffs, q, &out[by*blocksX+bx])
		}
	}
	return out
}

// checkToCoeffs holds p.ToCoeffs(quality, sub) to the oracles: every plane
// the encoder downsamples equals refDownsamplePlane in math.Float64bits, and
// every block equals refFDCTPlane's over the oracle's plane.
func checkToCoeffs(t testing.TB, p *PlanarImage, quality int, sub Subsampling) {
	t.Helper()
	im, err := p.ToCoeffs(quality, sub)
	if err != nil {
		t.Fatal(err)
	}
	hMax, vMax := im.MaxSampling()
	for ci := range im.Components {
		c := &im.Components[ci]
		cw := (p.Width*c.H + hMax - 1) / hMax
		ch := (p.Height*c.V + vMax - 1) / vMax
		plane := p.Planes[ci]
		if cw != p.Width || ch != p.Height {
			plane = refDownsamplePlane(p.Planes[ci], p.Width, p.Height, cw, ch)
			got := downsamplePlane(p.Planes[ci], p.Width, p.Height, cw, ch)
			for i, v := range plane {
				if math.Float64bits(got[i]) != math.Float64bits(v) {
					t.Fatalf("%dx%d %v component %d: downsampled sample %d = %v, oracle %v", p.Width, p.Height, sub, ci, i, got[i], v)
				}
			}
		}
		want := refFDCTPlane(plane, cw, ch, c.BlocksX, c.BlocksY, im.Quant[c.TqIndex])
		for i := range want {
			if c.Blocks[i] != want[i] {
				t.Fatalf("%dx%d %v q%d component %d: block %d = %v, oracle %v", p.Width, p.Height, sub, quality, ci, i, c.Blocks[i], want[i])
			}
		}
	}
}

// fuzzPlanes builds a w×h image of n planes from seed: mostly in-range
// samples, with ±0, samples just outside [0, 255] and ±1e6 mixed in.
func fuzzPlanes(seed int64, w, h, n int) *PlanarImage {
	rng := rand.New(rand.NewSource(seed))
	specials := []float64{0, math.Copysign(0, -1), -0.5, 255.5, -1, 256, 1e6, -1e6, 127.5, 128.5}
	p := NewPlanarImage(w, h, n)
	for _, pl := range p.Planes {
		for i := range pl {
			if rng.Intn(8) == 0 {
				pl[i] = specials[rng.Intn(len(specials))]
			} else {
				pl[i] = rng.Float64() * 255
			}
		}
	}
	return p
}

// FuzzToCoeffs holds the encoder's kernels to their oracles on every block,
// over sizes 1–40 of either parity, gray, 4:4:4, 4:2:2, 4:4:0 and 4:2:0, and
// any quality.
func FuzzToCoeffs(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(16), uint8(0), uint8(95))
	f.Add(int64(2), uint8(17), uint8(9), uint8(3), uint8(95))
	f.Add(int64(3), uint8(1), uint8(1), uint8(3), uint8(50))
	f.Add(int64(4), uint8(39), uint8(40), uint8(1), uint8(92))
	f.Add(int64(5), uint8(8), uint8(33), uint8(2), uint8(10))
	f.Add(int64(6), uint8(25), uint8(7), uint8(4), uint8(100))
	f.Add(int64(7), uint8(2), uint8(3), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rw, rh, layout, quality uint8) {
		w, h := 1+int(rw)%40, 1+int(rh)%40
		q := 1 + int(quality)%100
		n, sub := 3, Sub444
		switch layout % 5 {
		case 0:
			n = 1
		case 1:
			sub = Sub422
		case 2:
			sub = Sub440
		case 3:
			sub = Sub420
		}
		checkToCoeffs(t, fuzzPlanes(seed, w, h, n), q, sub)
	})
}

// TestToCoeffsMatchesOracle runs the oracle comparison over the sizes a
// cold view encodes, odd and even, in every layout, and over planes of −0,
// whose boxes the reference sums to +0.
func TestToCoeffsMatchesOracle(t *testing.T) {
	for _, sz := range [][2]int{{130, 98}, {127, 95}, {200, 150}, {9, 64}} {
		negZero := NewPlanarImage(sz[0], sz[1], 3)
		for _, pl := range negZero.Planes {
			for i := range pl {
				pl[i] = math.Copysign(0, -1)
			}
		}
		for i, sub := range []Subsampling{Sub444, Sub422, Sub440, Sub420} {
			checkToCoeffs(t, fuzzPlanes(int64(i), sz[0], sz[1], 3), 95, sub)
			checkToCoeffs(t, negZero, 95, sub)
		}
		checkToCoeffs(t, fuzzPlanes(9, sz[0], sz[1], 1), 95, Sub420)
	}
}

// TestQuantizeBlockIntMatchesDivision holds the multiply-only quantiser to
// the division it replaces. For every q a baseline table holds (1–255) it
// covers every numerator FDCT8x8Int emits for samples in [−128, 127] — a
// magnitude of at most 64·128·2 — with margin, every 65537th int32 across
// the whole range, the int32 extremes, and each quotient boundary
// (numerators just either side of a multiple of the divisor less half of
// it). Every 97th 16-bit q, up to 65535, gets the sweep and the extremes.
func TestQuantizeBlockIntMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const reach = 1 << 15
	check := func(q uint16, vals []int32) {
		table := FlatQuantTable(q)
		z := newQuantizer(&table)
		var coeffs [64]int32
		var got, want Block
		for len(vals) > 0 {
			k := copy(coeffs[:], vals)
			vals = vals[k:]
			quantizeBlockInt(&coeffs, z, &got)
			refQuantizeBlock(&coeffs, &table, &want)
			if got != want {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("q %d: %d quantises to %d, division gives %d", q, coeffs[i], got[i], want[i])
					}
				}
			}
		}
	}
	var sweep []int32
	for v := int64(math.MinInt32); v <= math.MaxInt32; v += 65537 {
		sweep = append(sweep, int32(v))
	}
	extremes := []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32, math.MaxInt32 - 1, -1, 0, 1}
	var vals []int32
	for q := 1; q <= 255; q++ {
		vals = vals[:0]
		for v := -reach; v <= reach; v++ {
			vals = append(vals, int32(v))
		}
		d, half := int64(8*q), int64(4*q)
		for i := 0; i < 256; i++ {
			m := rng.Int63n((math.MaxInt32 + half) / d)
			for _, v := range []int64{m*d - half - 1, m*d - half, m*d - half + 1} {
				if v >= 0 && v <= math.MaxInt32 {
					vals = append(vals, int32(v), int32(-v))
				}
			}
		}
		check(uint16(q), append(append(vals, sweep...), extremes...))
	}
	for q := 256; q <= 65535; q += 97 {
		check(uint16(q), append(sweep, extremes...))
	}
	check(65535, append(sweep, extremes...))
}

// TestToCoeffsRejectsMalformed: an image with a plane count the encoder has
// no layout for, or a plane shorter than Width×Height, is an error, not an
// index panic.
func TestToCoeffsRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *PlanarImage
		want string
	}{
		{"two planes", NewPlanarImage(10, 10, 2), "2 planes"},
		{"four planes", NewPlanarImage(10, 10, 4), "4 planes"},
		{"no planes", &PlanarImage{Width: 10, Height: 10}, "0 planes"},
		{"short luma", &PlanarImage{Width: 10, Height: 10, Planes: [][]float64{make([]float64, 100), make([]float64, 99), make([]float64, 100)}}, "plane 1 holds 99 samples"},
		{"short gray", &PlanarImage{Width: 10, Height: 11, Planes: [][]float64{make([]float64, 100)}}, "plane 0 holds 100 samples"},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: ToCoeffs panicked: %v", tc.name, r)
				}
			}()
			_, err := tc.p.ToCoeffs(95, Sub420)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: got error %v, want one naming %q", tc.name, err, tc.want)
			}
		}()
	}
}
