package jpegx

import "math/bits"

// Fixed-point DCT/IDCT, the production transforms of the pixel pipeline. The
// algorithm is the Loeffler–Ligtenberg–Moshovitz factorization in 13-bit
// fixed point (libjpeg's jfdctint/jidctint): 12 multiplications per 1-D
// pass, all arithmetic in int64 so no intermediate can overflow, results
// within ±1 of the float transforms (pinned by FuzzIDCTFixedVsFloat). The
// float matrix transforms in dct.go remain as the differential references.
// Unlike libjpeg the IDCT does not range-limit its output: P3's public and
// secret parts are valid coefficient images whose sample planes legitimately
// exceed [0, 255], and reconstruction needs the unclamped values (clamping is
// display's job; see imaging.Clamp).
const (
	dctConstBits = 13
	dctPass1Bits = 2
)

// 13-bit fixed-point constants: round(cos-derived value × 2^13).
const (
	fix0_298631336 = 2446
	fix0_390180644 = 3196
	fix0_541196100 = 4433
	fix0_765366865 = 6270
	fix0_899976223 = 7373
	fix1_175875602 = 9633
	fix1_501321110 = 12299
	fix1_847759065 = 15137
	fix1_961570560 = 16069
	fix2_053119869 = 16819
	fix2_562915447 = 20995
	fix3_072711026 = 25172
)

// descale divides by 2^n rounding to nearest (half up), the DESCALE of
// libjpeg.
func descale(x int64, n uint) int64 { return (x + 1<<(n-1)) >> n }

// FDCT8x8Int computes the forward 8×8 DCT of the level-shifted samples in
// src (row-major) into dst (natural order), scaled by 8: dst = 8·DCT(src).
// Callers quantize with an 8×-scaled divisor (see quantizeBlockInt), which
// folds the scale back out with no extra precision loss.
func FDCT8x8Int(src, dst *[64]int32) {
	var ws [64]int64

	// Pass 1: rows. Outputs are scaled by 2^dctPass1Bits.
	for i := 0; i < 64; i += 8 {
		d0, d1, d2, d3 := int64(src[i]), int64(src[i+1]), int64(src[i+2]), int64(src[i+3])
		d4, d5, d6, d7 := int64(src[i+4]), int64(src[i+5]), int64(src[i+6]), int64(src[i+7])

		tmp0, tmp7 := d0+d7, d0-d7
		tmp1, tmp6 := d1+d6, d1-d6
		tmp2, tmp5 := d2+d5, d2-d5
		tmp3, tmp4 := d3+d4, d3-d4

		tmp10, tmp13 := tmp0+tmp3, tmp0-tmp3
		tmp11, tmp12 := tmp1+tmp2, tmp1-tmp2

		ws[i] = (tmp10 + tmp11) << dctPass1Bits
		ws[i+4] = (tmp10 - tmp11) << dctPass1Bits
		z1 := (tmp12 + tmp13) * fix0_541196100
		ws[i+2] = descale(z1+tmp13*fix0_765366865, dctConstBits-dctPass1Bits)
		ws[i+6] = descale(z1-tmp12*fix1_847759065, dctConstBits-dctPass1Bits)

		z1 = tmp4 + tmp7
		z2 := tmp5 + tmp6
		z3 := tmp4 + tmp6
		z4 := tmp5 + tmp7
		z5 := (z3 + z4) * fix1_175875602
		tmp4 *= fix0_298631336
		tmp5 *= fix2_053119869
		tmp6 *= fix3_072711026
		tmp7 *= fix1_501321110
		z1 *= -fix0_899976223
		z2 *= -fix2_562915447
		z3 = z3*-fix1_961570560 + z5
		z4 = z4*-fix0_390180644 + z5
		ws[i+7] = descale(tmp4+z1+z3, dctConstBits-dctPass1Bits)
		ws[i+5] = descale(tmp5+z2+z4, dctConstBits-dctPass1Bits)
		ws[i+3] = descale(tmp6+z2+z3, dctConstBits-dctPass1Bits)
		ws[i+1] = descale(tmp7+z1+z4, dctConstBits-dctPass1Bits)
	}

	// Pass 2: columns, removing the pass-1 scale.
	for u := 0; u < 8; u++ {
		d0, d1, d2, d3 := ws[u], ws[8+u], ws[16+u], ws[24+u]
		d4, d5, d6, d7 := ws[32+u], ws[40+u], ws[48+u], ws[56+u]

		tmp0, tmp7 := d0+d7, d0-d7
		tmp1, tmp6 := d1+d6, d1-d6
		tmp2, tmp5 := d2+d5, d2-d5
		tmp3, tmp4 := d3+d4, d3-d4

		tmp10, tmp13 := tmp0+tmp3, tmp0-tmp3
		tmp11, tmp12 := tmp1+tmp2, tmp1-tmp2

		dst[u] = int32(descale(tmp10+tmp11, dctPass1Bits))
		dst[32+u] = int32(descale(tmp10-tmp11, dctPass1Bits))
		z1 := (tmp12 + tmp13) * fix0_541196100
		dst[16+u] = int32(descale(z1+tmp13*fix0_765366865, dctConstBits+dctPass1Bits))
		dst[48+u] = int32(descale(z1-tmp12*fix1_847759065, dctConstBits+dctPass1Bits))

		z1 = tmp4 + tmp7
		z2 := tmp5 + tmp6
		z3 := tmp4 + tmp6
		z4 := tmp5 + tmp7
		z5 := (z3 + z4) * fix1_175875602
		tmp4 *= fix0_298631336
		tmp5 *= fix2_053119869
		tmp6 *= fix3_072711026
		tmp7 *= fix1_501321110
		z1 *= -fix0_899976223
		z2 *= -fix2_562915447
		z3 = z3*-fix1_961570560 + z5
		z4 = z4*-fix0_390180644 + z5
		dst[56+u] = int32(descale(tmp4+z1+z3, dctConstBits+dctPass1Bits))
		dst[40+u] = int32(descale(tmp5+z2+z4, dctConstBits+dctPass1Bits))
		dst[24+u] = int32(descale(tmp6+z2+z3, dctConstBits+dctPass1Bits))
		dst[8+u] = int32(descale(tmp7+z1+z4, dctConstBits+dctPass1Bits))
	}
}

// IDCT8x8Int computes the inverse 8×8 DCT of the dequantized coefficients in
// src (natural order) into dst: row-major level-shifted samples scaled by 8
// (3 fractional bits), unclamped. The fractional bits matter to P3: pixel
// reconstruction sums independently transformed public and secret planes, and
// rounding each to whole samples first costs ~2 dB on the recombined image.
// Callers wanting plain samples multiply by 0.125 (idctRows) or descale by 3.
func IDCT8x8Int(src, dst *[64]int32) {
	var ws [64]int64

	// Pass 1: columns. All-zero AC columns (common in quantized images)
	// shortcut to a constant column.
	for u := 0; u < 8; u++ {
		if src[8+u]|src[16+u]|src[24+u]|src[32+u]|src[40+u]|src[48+u]|src[56+u] == 0 {
			dc := int64(src[u]) << dctPass1Bits
			ws[u], ws[8+u], ws[16+u], ws[24+u] = dc, dc, dc, dc
			ws[32+u], ws[40+u], ws[48+u], ws[56+u] = dc, dc, dc, dc
			continue
		}
		z2 := int64(src[16+u])
		z3 := int64(src[48+u])
		z1 := (z2 + z3) * fix0_541196100
		tmp2 := z1 - z3*fix1_847759065
		tmp3 := z1 + z2*fix0_765366865
		z2 = int64(src[u])
		z3 = int64(src[32+u])
		tmp0 := (z2 + z3) << dctConstBits
		tmp1 := (z2 - z3) << dctConstBits
		tmp10, tmp13 := tmp0+tmp3, tmp0-tmp3
		tmp11, tmp12 := tmp1+tmp2, tmp1-tmp2

		t0 := int64(src[56+u])
		t1 := int64(src[40+u])
		t2 := int64(src[24+u])
		t3 := int64(src[8+u])
		z1 = t0 + t3
		z2 = t1 + t2
		z3 = t0 + t2
		z4 := t1 + t3
		z5 := (z3 + z4) * fix1_175875602
		t0 *= fix0_298631336
		t1 *= fix2_053119869
		t2 *= fix3_072711026
		t3 *= fix1_501321110
		z1 *= -fix0_899976223
		z2 *= -fix2_562915447
		z3 = z3*-fix1_961570560 + z5
		z4 = z4*-fix0_390180644 + z5
		t0 += z1 + z3
		t1 += z2 + z4
		t2 += z2 + z3
		t3 += z1 + z4

		ws[u] = descale(tmp10+t3, dctConstBits-dctPass1Bits)
		ws[56+u] = descale(tmp10-t3, dctConstBits-dctPass1Bits)
		ws[8+u] = descale(tmp11+t2, dctConstBits-dctPass1Bits)
		ws[48+u] = descale(tmp11-t2, dctConstBits-dctPass1Bits)
		ws[16+u] = descale(tmp12+t1, dctConstBits-dctPass1Bits)
		ws[40+u] = descale(tmp12-t1, dctConstBits-dctPass1Bits)
		ws[24+u] = descale(tmp13+t0, dctConstBits-dctPass1Bits)
		ws[32+u] = descale(tmp13-t0, dctConstBits-dctPass1Bits)
	}

	// Pass 2: rows. The canonical final descale is dctConstBits+dctPass1Bits+3
	// (the +3 removing the DCT's factor of 8); keeping the 3 bits instead
	// yields the 8×-scaled samples documented above.
	for i := 0; i < 64; i += 8 {
		z2 := ws[i+2]
		z3 := ws[i+6]
		z1 := (z2 + z3) * fix0_541196100
		tmp2 := z1 - z3*fix1_847759065
		tmp3 := z1 + z2*fix0_765366865
		tmp0 := (ws[i] + ws[i+4]) << dctConstBits
		tmp1 := (ws[i] - ws[i+4]) << dctConstBits
		tmp10, tmp13 := tmp0+tmp3, tmp0-tmp3
		tmp11, tmp12 := tmp1+tmp2, tmp1-tmp2

		t0 := ws[i+7]
		t1 := ws[i+5]
		t2 := ws[i+3]
		t3 := ws[i+1]
		z1 = t0 + t3
		z2 = t1 + t2
		z3 = t0 + t2
		z4 := t1 + t3
		z5 := (z3 + z4) * fix1_175875602
		t0 *= fix0_298631336
		t1 *= fix2_053119869
		t2 *= fix3_072711026
		t3 *= fix1_501321110
		z1 *= -fix0_899976223
		z2 *= -fix2_562915447
		z3 = z3*-fix1_961570560 + z5
		z4 = z4*-fix0_390180644 + z5
		t0 += z1 + z3
		t1 += z2 + z4
		t2 += z2 + z3
		t3 += z1 + z4

		dst[i] = int32(descale(tmp10+t3, dctConstBits+dctPass1Bits))
		dst[i+7] = int32(descale(tmp10-t3, dctConstBits+dctPass1Bits))
		dst[i+1] = int32(descale(tmp11+t2, dctConstBits+dctPass1Bits))
		dst[i+6] = int32(descale(tmp11-t2, dctConstBits+dctPass1Bits))
		dst[i+2] = int32(descale(tmp12+t1, dctConstBits+dctPass1Bits))
		dst[i+5] = int32(descale(tmp12-t1, dctConstBits+dctPass1Bits))
		dst[i+3] = int32(descale(tmp13+t0, dctConstBits+dctPass1Bits))
		dst[i+4] = int32(descale(tmp13-t0, dctConstBits+dctPass1Bits))
	}
}

// dequantizeBlockInt expands quantized integers to dequantized int32
// coefficients for the fixed-point IDCTs.
func dequantizeBlockInt(in *Block, q *QuantTable, out *[64]int32) {
	for i := 0; i < 64; i++ {
		out[i] = in[i] * int32(q[i])
	}
}

// quantizer is a quantisation table as quantizeBlockInt applies it to
// 8×-scaled FDCT8x8Int output: per coefficient, half the divisor d = 8·q
// (the rounding offset) and the multiplier ⌈2^64/d⌉ that divides by d.
type quantizer struct {
	half, recip [64]uint64
}

func newQuantizer(q *QuantTable) *quantizer {
	z := new(quantizer)
	for k, v := range q {
		d := 8 * uint64(v)
		z.half[k], z.recip[k] = d>>1, ^uint64(0)/d+1
	}
	return z
}

// quantizeBlockInt converts 8×-scaled FDCT8x8Int output to quantized
// integers, rounding half away from zero as the float path does: the
// quotient (|v| + d/2) / d, signed like v. It divides by multiplying: for
// every numerator n < 2^32 and divisor d < 2^32, ⌊n/d⌋ is the high word of
// n·⌈2^64/d⌉ (Lemire, Kaser & Kurz, "Faster remainder by direct
// computation", 2019), and |v| + d/2 stays below 2^32 for every int32 v and
// 16-bit table entry.
func quantizeBlockInt(coeffs *[64]int32, z *quantizer, out *Block) {
	for k, c := range coeffs {
		v := int64(c)
		s := v >> 63 // 0, or −1 for a negative v
		n := uint64((v^s)-s) + z.half[k]
		quo, _ := bits.Mul64(n, z.recip[k])
		out[k] = int32((int64(quo) ^ s) - s)
	}
}
