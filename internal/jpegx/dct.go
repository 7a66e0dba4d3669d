package jpegx

import "math"

// The forward and inverse 8×8 type-II DCT used by JPEG, implemented as
// separable matrix transforms over float64. No encode or decode runs them:
// the pixel path uses the fixed-point transforms of dct_int.go, and the
// secret side of reconstruction reads only the 1-D basis (DCTBasis),
// composed into its operator. They stay as the exact references the tests
// pin those against, so correctness is favored over speed: a matrix
// formulation keeps the orthogonality invariant (idct(fdct(x)) ≈ x) easy to
// property-test.

// dctMat[u][x] = C(u)/2 * cos((2x+1)uπ/16), the 1-D DCT-II basis.
var dctMat [8][8]float64

func init() {
	for u := 0; u < 8; u++ {
		cu := 1.0
		if u == 0 {
			cu = 1 / math.Sqrt2
		}
		for x := 0; x < 8; x++ {
			dctMat[u][x] = cu / 2 * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)
		}
	}
}

// DCTBasis is the 1-D 8-point IDCT as data, the factor IDCT8x8 applies per
// axis: sample x of a block row holds Σ_u DCTBasis(u, x) · F(u) of that
// row's dequantised frequencies F.
func DCTBasis(u, x int) float64 { return dctMat[u][x] }

// FDCT8x8 computes the forward 8×8 DCT of the level-shifted samples in src
// (row-major, values typically in [-128, 127]) into dst (natural order).
func FDCT8x8(src *[64]float64, dst *[64]float64) {
	var tmp [64]float64
	// Rows: tmp[y][u] = Σ_x src[y][x] · dctMat[u][x]
	for y := 0; y < 8; y++ {
		row := src[y*8 : y*8+8]
		for u := 0; u < 8; u++ {
			var s float64
			m := &dctMat[u]
			for x := 0; x < 8; x++ {
				s += row[x] * m[x]
			}
			tmp[y*8+u] = s
		}
	}
	// Columns: dst[v][u] = Σ_y tmp[y][u] · dctMat[v][y]
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s float64
			m := &dctMat[v]
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * m[y]
			}
			dst[v*8+u] = s
		}
	}
}

// IDCT8x8 computes the inverse 8×8 DCT of the coefficients in src (natural
// order) into dst (row-major level-shifted samples).
func IDCT8x8(src *[64]float64, dst *[64]float64) {
	var tmp [64]float64
	// Columns first: tmp[y][u] = Σ_v src[v][u] · dctMat[v][y]
	for u := 0; u < 8; u++ {
		for y := 0; y < 8; y++ {
			var s float64
			for v := 0; v < 8; v++ {
				s += src[v*8+u] * dctMat[v][y]
			}
			tmp[y*8+u] = s
		}
	}
	// Rows: dst[y][x] = Σ_u tmp[y][u] · dctMat[u][x]
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			var s float64
			for u := 0; u < 8; u++ {
				s += tmp[y*8+u] * dctMat[u][x]
			}
			dst[y*8+x] = s
		}
	}
}

// quantizeBlock converts DCT coefficients to quantized integers using table
// q, with round-half-away-from-zero as in libjpeg.
func quantizeBlock(coeffs *[64]float64, q *QuantTable, out *Block) {
	for i := 0; i < 64; i++ {
		v := coeffs[i] / float64(q[i])
		if v >= 0 {
			out[i] = int32(v + 0.5)
		} else {
			out[i] = -int32(-v + 0.5)
		}
	}
}

// dequantizeBlock expands quantized integers back to DCT-domain floats.
func dequantizeBlock(in *Block, q *QuantTable, out *[64]float64) {
	for i := 0; i < 64; i++ {
		out[i] = float64(in[i]) * float64(q[i])
	}
}
