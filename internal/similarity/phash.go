// Package similarity indexes public parts by perceptual hash. The P3
// public part deliberately keeps the visually dominant low-frequency
// content (everything below the DCT threshold), which is exactly the
// band a DCT perceptual hash measures — so near-duplicate search works
// on the public part alone, without ever unsealing a secret part. The
// proxy uses this for duplicate clustering; EXPERIMENTS.md records the
// privacy flip side (an honest-but-curious PSP could run the same
// query).
//
// The hash is the classic 64-bit DCT pHash: decode, shrink to 32×32
// luma, keep the lowest 8×8 block of the 32×32 DCT-II, threshold each
// coefficient against the median. Hamming distance on the resulting
// bits orders images by visual similarity; exact-duplicate re-encodes
// land within a couple of bits.
package similarity

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"

	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/vision"
)

// Hash is a 64-bit DCT perceptual hash. Bit (v*8+u) holds whether DCT
// coefficient (u, v) of the 32×32 luma thumbnail exceeds the median of
// the retained 8×8 low-frequency block.
type Hash uint64

// String renders the hash as 16 hex digits (stable across runs; used in
// golden tests and JSON output).
func (h Hash) String() string {
	const hexdig = "0123456789abcdef"
	var b [16]byte
	for i := 0; i < 16; i++ {
		b[i] = hexdig[(h>>uint(60-4*i))&0xf]
	}
	return string(b[:])
}

// ParseHash inverts String.
func ParseHash(s string) (Hash, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	return Hash(v), err
}

// Distance returns the hamming distance between two hashes (0..64).
func Distance(a, b Hash) int {
	return bits.OnesCount64(uint64(a ^ b))
}

const (
	thumbSize = 32 // luma thumbnail edge
	hashEdge  = 8  // retained low-frequency block edge
)

// dctBasis is the first hashEdge rows of the orthonormal 32-point
// DCT-II basis: basis[u][x] = c(u)·cos((2x+1)uπ/64). Precomputed once;
// the 2-D low-frequency block is then two small matrix products instead
// of a full 32×32 transform.
var dctBasis = func() [hashEdge][thumbSize]float64 {
	var m [hashEdge][thumbSize]float64
	for u := 0; u < hashEdge; u++ {
		c := math.Sqrt(2.0 / thumbSize)
		if u == 0 {
			c = math.Sqrt(1.0 / thumbSize)
		}
		for x := 0; x < thumbSize; x++ {
			m[u][x] = c * math.Cos((2*float64(x)+1)*float64(u)*math.Pi/(2*thumbSize))
		}
	}
	return m
}()

// PHash computes the perceptual hash of a JPEG. It returns an error —
// never panics — on undecodable input (FuzzPHash pins this). Only the luma
// plane is reconstructed, on a recycled working set; the hash equals
// HashPlanar of the full decode (jpegx.DecodeToPlanar), which reads no
// chroma either.
func PHash(jpegBytes []byte) (Hash, error) {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	im, err := jpegx.DecodeBytesInto(jpegBytes, &s.coeffs, &s.dec)
	if err != nil {
		return 0, err
	}
	return HashPlanar(im.ToLumaInto(&s.luma, &s.planar)), nil
}

// scratch is one PHash's working set: the decoder state, the coefficients,
// the luma plane and, for a subsampled luma component, its native samples.
// Each is sized by the largest photo it has hashed.
type scratch struct {
	dec    jpegx.DecoderScratch
	coeffs jpegx.CoeffImage
	planar jpegx.PlanarScratch
	luma   jpegx.PlanarImage
}

// scratches recycles working sets between hashes. A sync.Pool suffices: the
// ingest workers hash back to back, and an idle index lets the collector
// take the sets back.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// HashPlanar computes the perceptual hash of an already-decoded image.
func HashPlanar(img *jpegx.PlanarImage) Hash {
	// Only luma is hashed, so only luma is resized.
	y := &jpegx.PlanarImage{Width: img.Width, Height: img.Height, Planes: img.Planes[:1]}
	thumb := imaging.Resize{W: thumbSize, H: thumbSize, Filter: imaging.Triangle}.Apply(y)
	return hashGray(vision.Luma(thumb))
}

// hashGray hashes a thumbSize×thumbSize luma plane.
func hashGray(g *vision.Gray) Hash {
	// Low-frequency block of the 2-D DCT-II: coef = B · pix · Bᵀ with B
	// the hashEdge×thumbSize basis. First contract over x (columns),
	// then over y (rows).
	var tmp [hashEdge][thumbSize]float64 // tmp[u][y] = Σ_x B[u][x]·pix[y][x]
	for u := 0; u < hashEdge; u++ {
		for y := 0; y < thumbSize; y++ {
			var acc float64
			row := g.Pix[y*thumbSize : y*thumbSize+thumbSize]
			for x := 0; x < thumbSize; x++ {
				acc += dctBasis[u][x] * row[x]
			}
			tmp[u][y] = acc
		}
	}
	var coef [hashEdge * hashEdge]float64 // coef[v*8+u]
	for v := 0; v < hashEdge; v++ {
		for u := 0; u < hashEdge; u++ {
			var acc float64
			for y := 0; y < thumbSize; y++ {
				acc += dctBasis[v][y] * tmp[u][y]
			}
			coef[v*hashEdge+u] = acc
		}
	}
	// Threshold against the median of all 64 retained coefficients. The
	// DC term dwarfs the rest, which skews a mean; the median splits the
	// block evenly so every hash carries ~32 set bits of signal.
	sorted := coef
	sort.Float64s(sorted[:])
	median := (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	var h Hash
	for i, c := range coef {
		if c > median {
			h |= 1 << uint(i)
		}
	}
	return h
}
