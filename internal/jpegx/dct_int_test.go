package jpegx

import (
	"math"
	"math/rand"
	"testing"
)

// The fixed-point transforms are the production pixel path; the float matrix
// transforms in dct.go are the exact references they are pinned against.
// Contract: for any realizable block (a block that is the quantized forward
// transform of actual 8-bit samples — the only blocks a decoder meets),
// every fixed-point output sample is within ±1 of the float reference.

// realizableBlock builds a dequantized coefficient block by round-tripping
// random samples through the float forward path, plus the float-dequantized
// copy for the reference IDCT.
func realizableBlock(rng *rand.Rand, q *QuantTable, spread float64) (intCoeffs [64]int32, floatCoeffs [64]float64) {
	var samples, coeffs [64]float64
	for i := range samples {
		samples[i] = math.Round(rng.NormFloat64() * spread)
		if samples[i] > 127 {
			samples[i] = 127
		}
		if samples[i] < -128 {
			samples[i] = -128
		}
	}
	FDCT8x8(&samples, &coeffs)
	var b Block
	quantizeBlock(&coeffs, q, &b)
	dequantizeBlock(&b, q, &floatCoeffs)
	dequantizeBlockInt(&b, q, &intCoeffs)
	return intCoeffs, floatCoeffs
}

// TestIDCTIntVsFloat pins the full fixed-point IDCT to the exact float
// matrix IDCT on realizable blocks: every sample within ±1.
func TestIDCTIntVsFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	luma, chroma := StandardQuantTables(90)
	for _, q := range []*QuantTable{&luma, &chroma} {
		for trial := 0; trial < 500; trial++ {
			ic, fc := realizableBlock(rng, q, 20+float64(trial%5)*25)
			var got [64]int32
			IDCT8x8Int(&ic, &got)
			var want [64]float64
			IDCT8x8(&fc, &want)
			for i := range want {
				if d := math.Abs(float64(got[i])*0.125 - want[i]); d > 1 {
					t.Fatalf("trial %d sample %d: int %v (/8 = %v) vs float %v (|Δ| = %.3f)",
						trial, i, got[i], float64(got[i])*0.125, want[i], d)
				}
			}
		}
	}
}

// TestFDCTIntVsFloat pins the fixed-point forward path (FDCT + 8×-scaled
// quantization) to the float one: quantized coefficients within ±1, and the
// overwhelming majority identical (only rounding-boundary values may differ).
func TestFDCTIntVsFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	luma, _ := StandardQuantTables(90)
	var off, total int
	for trial := 0; trial < 500; trial++ {
		var fsamples, fcoeffs [64]float64
		var isamples, icoeffs [64]int32
		for i := range fsamples {
			v := math.Round(rng.NormFloat64() * 45)
			if v > 127 {
				v = 127
			}
			if v < -128 {
				v = -128
			}
			fsamples[i] = v
			isamples[i] = int32(v)
		}
		var fq, iq Block
		FDCT8x8(&fsamples, &fcoeffs)
		quantizeBlock(&fcoeffs, &luma, &fq)
		FDCT8x8Int(&isamples, &icoeffs)
		quantizeBlockInt(&icoeffs, newQuantizer(&luma), &iq)
		for i := range fq {
			d := fq[i] - iq[i]
			if d < -1 || d > 1 {
				t.Fatalf("trial %d coeff %d: float %d vs int %d", trial, i, fq[i], iq[i])
			}
			if d != 0 {
				off++
			}
			total++
		}
	}
	if off*100 > total*2 {
		t.Errorf("%d/%d quantized coefficients differ (>2%%) — fixed-point forward path too loose", off, total)
	}
}

// FuzzIDCTFixedVsFloat fuzzes the ±1 contract over quant quality and sample
// statistics. Run with `go test -fuzz=FuzzIDCTFixedVsFloat ./internal/jpegx`.
func FuzzIDCTFixedVsFloat(f *testing.F) {
	f.Add(int64(1), uint8(90), uint8(40))
	f.Add(int64(2), uint8(50), uint8(120))
	f.Add(int64(3), uint8(99), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, quality, spread uint8) {
		q := int(quality)
		if q < 1 {
			q = 1
		}
		if q > 100 {
			q = 100
		}
		luma, _ := StandardQuantTables(q)
		rng := rand.New(rand.NewSource(seed))
		ic, fc := realizableBlock(rng, &luma, 1+float64(spread))
		var got [64]int32
		IDCT8x8Int(&ic, &got)
		var want [64]float64
		IDCT8x8(&fc, &want)
		for i := range want {
			if d := math.Abs(float64(got[i])*0.125 - want[i]); d > 1 {
				t.Fatalf("sample %d: int/8 = %v vs float %v (|Δ| = %.3f)",
					i, float64(got[i])*0.125, want[i], d)
			}
		}
	})
}
