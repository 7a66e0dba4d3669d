// Package core implements the P3 privacy-preserving photo encoding
// algorithm of Ra, Govindan and Ortega (NSDI 2013): threshold-based
// splitting of a JPEG's quantized DCT coefficients into a public part that
// carries most of the bytes and a secret part that carries most of the
// information, plus the sign-correcting reconstruction that recombines them
// exactly — including after the public part has been processed by an
// arbitrary linear PSP-side transformation (resize, crop, filter).
package core

import (
	"errors"
	"fmt"

	"p3/internal/jpegx"
	"p3/internal/work"
)

// MaxThreshold bounds the splitting threshold. AC coefficients of an 8-bit
// baseline JPEG lie in [-1023, 1023]; thresholds beyond that would make the
// secret part empty of AC information.
const MaxThreshold = 1023

// Split divides a coefficient image into public and secret parts using the
// paper's threshold rule (§3.2, Fig. 1):
//
//   - Every DC coefficient moves to the secret part; the public DC becomes
//     zero. (DC alone reconstructs a recognizable thumbnail, so it must not
//     remain public.)
//   - An AC coefficient y with |y| ≤ T stays in the public part as is; the
//     secret entry is zero.
//   - An AC coefficient y with |y| > T is clipped: the public part gets T
//     (magnitude only — the sign moves to the secret part, which is what
//     makes the public part useless to attackers), and the secret part gets
//     sign(y)·(|y|−T).
//
// Both returned images share im's geometry, sampling and quantization
// tables, and both are encodable as standards-compliant JPEGs.
func Split(im *jpegx.CoeffImage, threshold int) (pub, sec *jpegx.CoeffImage, err error) {
	return SplitInto(im, threshold, nil, nil, nil)
}

// blockBand is one work item of the band pipeline: block rows [r0, r1) of
// component ci. Bands of different work items never overlap, so band workers
// write disjoint memory and the result is independent of scheduling.
type blockBand struct {
	ci, r0, r1 int
}

// blockBands cuts every component of im into at most per bands of block
// rows.
func blockBands(im *jpegx.CoeffImage, per int) []blockBand {
	bands := make([]blockBand, 0, per*len(im.Components))
	for ci := range im.Components {
		by := im.Components[ci].BlocksY
		n := per
		if n > by {
			n = by
		}
		for i := 0; i < n; i++ {
			r0, r1 := by*i/n, by*(i+1)/n
			if r0 < r1 {
				bands = append(bands, blockBand{ci: ci, r0: r0, r1: r1})
			}
		}
	}
	return bands
}

// SplitInto is Split reusing the storage of pub and sec (results of a
// previous call, or nil) for the two output images, so a pooled caller
// avoids re-allocating the coefficient arrays for every same-geometry photo.
// The split runs as bands of block rows on pool (nil = sequential); every
// coefficient of both outputs is written by exactly one band, so the result
// is byte-identical whatever the parallelism.
func SplitInto(im *jpegx.CoeffImage, threshold int, pubDst, secDst *jpegx.CoeffImage, pool *work.Pool) (pub, sec *jpegx.CoeffImage, err error) {
	if im == nil {
		return nil, nil, errors.New("core: nil image")
	}
	if threshold < 1 || threshold > MaxThreshold {
		return nil, nil, fmt.Errorf("core: threshold %d out of range [1, %d]", threshold, MaxThreshold)
	}
	// Shape-only clones: splitBand overwrites all 64 coefficients of every
	// block, so copying the source blocks here would be pure waste.
	pub = im.CloneShapeInto(pubDst)
	sec = im.CloneShapeInto(secDst)
	bands := blockBands(im, pool.Size())
	t := int32(threshold)
	_ = pool.Do(len(bands), func(i int) error {
		splitBand(im, pub, sec, t, bands[i])
		return nil
	})
	return pub, sec, nil
}

// splitBand applies the threshold rule to one band.
func splitBand(im, pub, sec *jpegx.CoeffImage, t int32, b blockBand) {
	src := &im.Components[b.ci]
	pb := pub.Components[b.ci].Blocks
	sb := sec.Components[b.ci].Blocks
	for bi := b.r0 * src.BlocksX; bi < b.r1*src.BlocksX; bi++ {
		y := &src.Blocks[bi]
		p, s := &pb[bi], &sb[bi]
		// DC extraction.
		p[0] = 0
		s[0] = y[0]
		for k := 1; k < 64; k++ {
			v := y[k]
			if uint32(v+t) <= uint32(2*t) { // |v| ≤ t: the common case, one compare
				p[k] = v
				s[k] = 0
				continue
			}
			// Clipped: public gets T (≥ 1, always nonzero), secret gets the
			// nonzero remainder sign(v)·(|v|−T).
			p[k] = t // sign is withheld from the public part
			if v > t {
				s[k] = v - t
			} else {
				s[k] = v + t
			}
		}
	}
}

// ReconstructCoeffs recombines unprocessed public and secret parts into the
// original coefficient image using the paper's Eq. (1):
//
//	y = Sp·ap + Ss·as + (Ss − Ss²)·w
//
// i.e. y = pub + sec, except that when the secret entry is negative the
// public sign was wrong and a −2T correction applies (pub carries +T for
// every above-threshold coefficient regardless of sign). The recombination
// is exact: Split followed by ReconstructCoeffs is the identity.
func ReconstructCoeffs(pub, sec *jpegx.CoeffImage, threshold int) (*jpegx.CoeffImage, error) {
	return ReconstructCoeffsInto(pub, sec, threshold, nil, nil)
}

// ReconstructCoeffsInto is ReconstructCoeffs reusing dst's storage for the
// output (nil allocates) and running the recombination as bands of block
// rows on pool. Each band fully computes its blocks from the two inputs, so
// the output is byte-identical to the sequential recombination.
func ReconstructCoeffsInto(pub, sec *jpegx.CoeffImage, threshold int, dst *jpegx.CoeffImage, pool *work.Pool) (*jpegx.CoeffImage, error) {
	if err := compatible(pub, sec); err != nil {
		return nil, err
	}
	if threshold < 1 || threshold > MaxThreshold {
		return nil, fmt.Errorf("core: threshold %d out of range [1, %d]", threshold, MaxThreshold)
	}
	t := int32(threshold)
	out := pub.CloneShapeInto(dst)
	bands := blockBands(pub, pool.Size())
	_ = pool.Do(len(bands), func(i int) error {
		b := bands[i]
		pb := pub.Components[b.ci].Blocks
		ob := out.Components[b.ci].Blocks
		sb := sec.Components[b.ci].Blocks
		bx := pub.Components[b.ci].BlocksX
		for bi := b.r0 * bx; bi < b.r1*bx; bi++ {
			p, o, s := &pb[bi], &ob[bi], &sb[bi]
			// DC: public part holds zero, secret holds the true value.
			o[0] = p[0] + s[0]
			for k := 1; k < 64; k++ {
				v := p[k]
				switch {
				case s[k] > 0:
					v += s[k]
				case s[k] < 0:
					v += s[k] - 2*t
				}
				o[k] = v
			}
		}
		return nil
	})
	return out, nil
}

// GuessThreshold mounts the paper's threshold-guessing attack (§3.4). The
// paper frames it as "assume T is the most frequent non-zero value"; for
// natural images, whose AC magnitudes are Laplacian-distributed (magnitude
// 1 always wins a raw popularity contest), the robust formulation is that
// clipping leaves two fingerprints: no AC magnitude exceeds T, and mass
// accumulates at exactly T. So the attacker guesses the maximum magnitude
// when it is anomalously popular relative to its neighbor, falling back to
// the plain mode. Returns 0 if the public part has no non-zero ACs.
func GuessThreshold(pub *jpegx.CoeffImage) int {
	hist := make(map[int32]int)
	var maxMag int32
	for ci := range pub.Components {
		for bi := range pub.Components[ci].Blocks {
			b := &pub.Components[ci].Blocks[bi]
			for k := 1; k < 64; k++ {
				if v := b[k]; v != 0 {
					if v < 0 {
						v = -v
					}
					hist[v]++
					if v > maxMag {
						maxMag = v
					}
				}
			}
		}
	}
	if maxMag == 0 {
		return 0
	}
	// Clipping spike: everything above T collapsed onto T, so the count at
	// the maximum dwarfs the natural tail just below it.
	if maxMag > 1 && hist[maxMag] > hist[maxMag-1] {
		return int(maxMag)
	}
	best, bestN := int32(0), 0
	for v, n := range hist {
		if n > bestN || (n == bestN && v > best) {
			best, bestN = v, n
		}
	}
	return int(best)
}

// compatible verifies two coefficient images share geometry and sampling.
func compatible(a, b *jpegx.CoeffImage) error {
	if a == nil || b == nil {
		return errors.New("core: nil image")
	}
	if a.Width != b.Width || a.Height != b.Height {
		return fmt.Errorf("core: dimension mismatch %dx%d vs %dx%d", a.Width, a.Height, b.Width, b.Height)
	}
	if len(a.Components) != len(b.Components) {
		return fmt.Errorf("core: component count mismatch %d vs %d", len(a.Components), len(b.Components))
	}
	for ci := range a.Components {
		ca, cb := &a.Components[ci], &b.Components[ci]
		if ca.H != cb.H || ca.V != cb.V || ca.BlocksX != cb.BlocksX || ca.BlocksY != cb.BlocksY {
			return fmt.Errorf("core: component %d geometry mismatch", ci)
		}
	}
	return nil
}
