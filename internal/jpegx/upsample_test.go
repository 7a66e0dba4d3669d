package jpegx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refUpsamplePlane is the loop upsamplePlane ran before it was rewritten as
// an even/odd pair loop, moved here verbatim: the oracle the fast loop must
// match bit for bit.
func refUpsamplePlane(src []float64, cw, ch int, dst []float64, w, h int) {
	// Horizontal pass.
	var hor []float64
	if cw == w {
		hor = src
	} else if 2*cw >= w {
		hor = make([]float64, w*ch)
		for y := 0; y < ch; y++ {
			row := src[y*cw : y*cw+cw]
			orow := hor[y*w : y*w+w]
			for x := 0; x < w; x++ {
				sx := x / 2
				if sx >= cw {
					sx = cw - 1
				}
				// Triangle: 3/4 nearest + 1/4 next-nearest.
				var other int
				if x%2 == 0 {
					other = sx - 1
				} else {
					other = sx + 1
				}
				if other < 0 {
					other = 0
				}
				if other >= cw {
					other = cw - 1
				}
				orow[x] = 0.75*row[sx] + 0.25*row[other]
			}
		}
	} else {
		hor = make([]float64, w*ch)
		for y := 0; y < ch; y++ {
			for x := 0; x < w; x++ {
				sx := x * cw / w
				hor[y*w+x] = src[y*cw+sx]
			}
		}
	}
	// Vertical pass.
	if ch == h {
		copy(dst, hor)
		return
	}
	if 2*ch >= h {
		for y := 0; y < h; y++ {
			sy := y / 2
			if sy >= ch {
				sy = ch - 1
			}
			var other int
			if y%2 == 0 {
				other = sy - 1
			} else {
				other = sy + 1
			}
			if other < 0 {
				other = 0
			}
			if other >= ch {
				other = ch - 1
			}
			for x := 0; x < w; x++ {
				dst[y*w+x] = 0.75*hor[sy*w+x] + 0.25*hor[other*w+x]
			}
		}
		return
	}
	for y := 0; y < h; y++ {
		sy := y * ch / h
		copy(dst[y*w:y*w+w], hor[sy*w:sy*w+w])
	}
}

func checkUpsample(t testing.TB, seed int64, cw, ch, w, h int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := make([]float64, cw*ch)
	for i := range src {
		src[i] = (rng.Float64() - 0.5) * 1024
		if rng.Intn(16) == 0 {
			src[i] = math.Copysign(0, -1)
		}
	}
	got, want := make([]float64, w*h), make([]float64, w*h)
	upsamplePlane(src, cw, ch, got, w, h, nil)
	refUpsamplePlane(src, cw, ch, want, w, h)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("upsamplePlane %dx%d→%dx%d: sample %d = %x, reference %x", cw, ch, w, h, i, got[i], want[i])
		}
	}
}

// TestUpsamplePlaneBitIdenticalToReference covers every branch per axis:
// even doubling (w = 2cw), odd doubling (w = 2cw − 1), no change, and the
// nearest-neighbour fallback for factors above two, down to one-sample
// planes.
func TestUpsamplePlaneBitIdenticalToReference(t *testing.T) {
	for i, c := range upsampleCases {
		checkUpsample(t, int64(i), c[0], c[1], c[2], c[3])
	}
}

// upsampleCases lists {cw, ch, w, h}.
var upsampleCases = [][4]int{
	{1, 1, 1, 1}, {1, 1, 2, 2}, {1, 1, 2, 1}, {1, 1, 1, 2},
	{2, 2, 3, 3}, {2, 2, 4, 4}, {3, 2, 5, 4}, {3, 2, 6, 3},
	{9, 5, 17, 9}, {9, 5, 18, 10}, {9, 9, 18, 9}, {9, 5, 9, 10},
	{65, 49, 130, 98}, {65, 49, 129, 97}, {257, 192, 513, 383},
	{3, 2, 13, 9}, {4, 4, 8, 17}, {4, 4, 17, 8}, // nearest-neighbour
}

// TestUpsampleTapMatchesUpsamplePlane: UpsampleTap, applied along both axes,
// is upsamplePlane on every branch — even doubling, odd doubling, copy and
// nearest — up to the rounding of (3/4 + 1/4)·s at a clamped end.
func TestUpsampleTapMatchesUpsamplePlane(t *testing.T) {
	for i, c := range upsampleCases {
		cw, ch, w, h := c[0], c[1], c[2], c[3]
		rng := rand.New(rand.NewSource(int64(i)))
		src := make([]float64, cw*ch)
		for j := range src {
			src[j] = (rng.Float64() - 0.5) * 1024
		}
		want := make([]float64, w*h)
		upsamplePlane(src, cw, ch, want, w, h, nil)
		for y := 0; y < h; y++ {
			ny, fy := UpsampleTap(y, ch, h)
			for x := 0; x < w; x++ {
				nx, fx := UpsampleTap(x, cw, w)
				near := 0.75*src[ny*cw+nx] + 0.25*src[ny*cw+fx]
				far := 0.75*src[fy*cw+nx] + 0.25*src[fy*cw+fx]
				if got := 0.75*near + 0.25*far; math.Abs(got-want[y*w+x]) > 1e-12 {
					t.Fatalf("%dx%d→%dx%d at (%d,%d): taps give %v, upsamplePlane %v", cw, ch, w, h, x, y, got, want[y*w+x])
				}
			}
		}
	}
}

// FuzzUpsamplePlane picks the chroma size and, per axis, which branch of
// upsamplePlane the full size selects.
func FuzzUpsamplePlane(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(8), uint8(4), uint8(1), uint8(2))
	f.Add(int64(3), uint8(64), uint8(48), uint8(2), uint8(1))
	f.Add(int64(4), uint8(2), uint8(96), uint8(3), uint8(3))
	f.Add(int64(5), uint8(31), uint8(7), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, cwRaw, chRaw, modeX, modeY uint8) {
		cw, ch := 1+int(cwRaw)%97, 1+int(chRaw)%97
		full := func(c int, mode uint8) int {
			switch mode % 4 {
			case 0:
				return c
			case 1:
				return 2 * c
			case 2:
				return max(1, 2*c-1)
			}
			return 2*c + 1 + int(mode/4)%9 // beyond 2×: nearest neighbour
		}
		checkUpsample(t, seed, cw, ch, full(cw, modeX), full(ch, modeY))
	})
}

var upsampleSink []float64

// BenchmarkUpsamplePlane times the 4:2:0 chroma upsample of one 1600×1200
// photo's plane, old loop (ref) beside the new one in the same run.
func BenchmarkUpsamplePlane(b *testing.B) {
	const w, h = 1600, 1200
	cw, ch := w/2, h/2
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, cw*ch)
	for i := range src {
		src[i] = rng.Float64() * 255
	}
	dst := make([]float64, w*h)
	for _, side := range []struct {
		name string
		fn   func(src []float64, cw, ch int, dst []float64, w, h int)
	}{{"ref", refUpsamplePlane}, {"new", func(src []float64, cw, ch int, dst []float64, w, h int) {
		upsamplePlane(src, cw, ch, dst, w, h, nil)
	}}} {
		b.Run(fmt.Sprintf("%dx%d/%s", w, h, side.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				side.fn(src, cw, ch, dst, w, h)
			}
			upsampleSink = dst
		})
	}
}
