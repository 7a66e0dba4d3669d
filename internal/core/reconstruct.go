package core

import (
	"fmt"

	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/work"
)

// SecretPlanes is the variant-independent half of pixel-domain
// reconstruction: the effective secret e, which stands for both secret-side
// terms of Eq. (2). Eq. (1)'s correction (Ss − Ss²)·w is −2T wherever a
// secret AC coefficient is negative and lives on the secret part's own
// quantisation grid, so it folds into the coefficients: e[0] = s[0], and for
// k ≥ 1, e[k] = s[k] − 2T where s[k] < 0 and s[k] elsewhere, making
// y = pub + e coefficient for coefficient.
//
// e is held dequantised, as sparse frequency rows (imaging.FreqPlanes): the
// secret part is mostly zeros (about one non-zero per 8×8 block at T = 15),
// and the IDCT, the chroma upsample and the served variant's operator A are
// all linear, so Reconstruct composes the IDCT into A's weights and scatters
// only the non-zero coefficients. No difference image D = IDCT(e) is ever
// materialised, at full resolution or any other.
//
// A PSP serves one photo as many renditions (thumbnail, feed, full view),
// and every one of them applies its own operator to the *same* e — so a
// multi-variant consumer derives it once and amortises the fold across the
// whole fan-out. Reconstruct does not mutate it; a SecretPlanes may be
// shared by concurrent reconstructions.
type SecretPlanes struct {
	f *imaging.FreqPlanes
}

// DeriveSecretPlanesPool folds one secret part into its effective secret's
// frequency rows, fanned out over bands of block rows on pool (nil runs
// sequentially; the rows are identical either way).
func DeriveSecretPlanesPool(sec *jpegx.CoeffImage, threshold int, pool *work.Pool) *SecretPlanes {
	f := &imaging.FreqPlanes{Width: sec.Width, Height: sec.Height, Planes: make([]imaging.FreqPlane, len(sec.Components))}
	for ci := range f.Planes {
		f.Planes[ci].W, f.Planes[ci].H = sec.ComponentSize(ci)
	}
	bands := blockBands(sec, pool.Size())
	rows := make([][]imaging.FreqRow, len(bands))
	t := int32(threshold)
	_ = pool.Do(len(bands), func(i int) error {
		b := bands[i]
		c, p := &sec.Components[b.ci], &f.Planes[b.ci]
		// A missing table (never in a decoded image) leaves the component zero.
		if q := sec.Quant[c.TqIndex]; q != nil {
			rows[i] = freqRows(c, q, t, (p.W+7)/8, b.r0, min(b.r1, (p.H+7)/8))
		}
		return nil
	})
	for i, b := range bands { // bands run in block-row order per component
		if p := &f.Planes[b.ci]; p.Rows == nil { // the first band holding rows is adopted, not copied
			p.Rows = rows[i]
		} else {
			p.Rows = append(p.Rows, rows[i]...)
		}
	}
	return &SecretPlanes{f: f}
}

// freqChunk is how many entries freqRows stores per allocation. Rows are
// written into chunks that are never regrown, so a dense secret (T = 1
// leaves ~25 non-zero coefficients per block) costs what it holds plus the
// tail of its last chunk, not append's copies.
const freqChunk = 8192

// freqRows writes block rows [by0, by1) of c, bw blocks wide, as frequency
// rows of the effective secret (see SecretPlanes): coefficient (u, v) of
// block (bx, by), folded and dequantised by q, at row 8·by+v, column 8·bx+u.
// Blocks past bw, and block rows past the plane, are MCU padding the IDCT
// never shows, and are skipped. It returns nil when no row holds an entry.
func freqRows(c *jpegx.Component, q *jpegx.QuantTable, t int32, bw, by0, by1 int) []imaging.FreqRow {
	rows := make([]imaging.FreqRow, 0, 8*(by1-by0))
	var xs []int32
	var vals []float64
	for by := by0; by < by1; by++ {
		blocks := c.Blocks[by*c.BlocksX:][:bw]
		for v := 0; v < 8; v++ {
			n := len(xs) // the row starts here in the current chunk
			for bx := range blocks {
				r := (*[8]int32)(blocks[bx][8*v:])
				if r[0]|r[1]|r[2]|r[3]|r[4]|r[5]|r[6]|r[7] == 0 {
					continue
				}
				for u, s := range r {
					if s == 0 {
						continue
					}
					k := 8*v + u
					if s < 0 && k > 0 {
						s -= 2 * t
					}
					if len(xs) == cap(xs) { // move the row begun so far to a fresh chunk
						size := max(freqChunk, 2*(len(xs)-n))
						xs, vals = append(make([]int32, 0, size), xs[n:]...), append(make([]float64, 0, size), vals[n:]...)
						n = 0
					}
					xs = append(xs, int32(8*bx+u))
					vals = append(vals, float64(s)*float64(q[k]))
				}
			}
			if m := len(xs); m > n {
				rows = append(rows, imaging.FreqRow{Y: 8*by + v, X: xs[n:m:m], Val: vals[n:m:m]})
			}
		}
	}
	if len(rows) == 0 {
		return nil
	}
	return rows
}

// Reconstruct applies Eq. (2) for one served variant: op maps the planes'
// (upsampled) resolution onto the served public part's, exactly as it maps
// the original photo onto that rendition, and the transformed difference
// image is added to the public part and clamped for display. The IDCT, the
// chroma upsample and op's separable stages run as one composed pass from
// each component's frequency rows, and that pass adds each output row onto a
// copy of the public part's and clamps it as it goes (imaging.ApplyFreqOnto),
// so the result is written once. publicPix is read, not modified.
func (sp *SecretPlanes) Reconstruct(publicPix *jpegx.PlanarImage, op imaging.Op) (*jpegx.PlanarImage, error) {
	return sp.reconstructOnto(publicPix.Clone(), op, nil, new(imaging.FreqScratch))
}

// reconstructOnto is Eq. (2) for the linear operator (nil for the identity)
// followed by remap (nil for none) written over pub: linear, the
// reconstruction replaces pub's samples in place (imaging.ApplyFreqOnto,
// through f's buffers) and pub is returned; remapped, pub is read and a new
// image returned, as in ReconstructRemapped.
func (sp *SecretPlanes) reconstructOnto(pub *jpegx.PlanarImage, linear imaging.Op, remap imaging.Invertible, f *imaging.FreqScratch) (*jpegx.PlanarImage, error) {
	if linear == nil {
		linear = imaging.Identity{}
	}
	if !linear.Linear() {
		return nil, fmt.Errorf("core: operator %s is not linear; see ReconstructRemapped", linear)
	}
	w, h, err := imaging.OutputSize(linear, sp.f.Width, sp.f.Height)
	if err != nil {
		return nil, fmt.Errorf("core: transforming the secret part: %w", err)
	}
	if w != pub.Width || h != pub.Height || len(sp.f.Planes) != len(pub.Planes) {
		return nil, fmt.Errorf("core: transformed secret is %dx%dx%d but public part is %dx%dx%d — wrong operator?",
			w, h, len(sp.f.Planes), pub.Width, pub.Height, len(pub.Planes))
	}
	if remap != nil {
		pub = remap.Inverse().Apply(pub)
	}
	rec := imaging.ApplyFreqOnto(linear, sp.f, pub, f)
	if remap != nil {
		rec = imaging.Clamp(remap.Apply(rec))
	}
	return rec, nil
}

// ReconstructPixels recombines in the pixel domain. publicPix is the decoded
// public part — possibly after the PSP applied a transform — and op is the
// transform the PSP applied (imaging.Identity{} when none). Per Eq. (2):
//
//	A·y = A·(public) + A·(secret) + A·(correction)
//	    = A·(public) + A·IDCT(e)
//
// with e the effective secret (see SecretPlanes). The returned image is the
// reconstructed photo, clamped to [0, 255].
//
// op must be linear (op.Linear() == true); for invertible pointwise remaps
// such as gamma, use ReconstructRemapped.
func ReconstructPixels(publicPix *jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, op imaging.Op) (*jpegx.PlanarImage, error) {
	return ReconstructPixelsPool(publicPix, sec, threshold, op, nil)
}

// ReconstructPixelsPool is ReconstructPixels with the coefficient fold
// fanned out over bands on pool; the result is bit-identical to the
// sequential reconstruction.
func ReconstructPixelsPool(publicPix *jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, op imaging.Op, pool *work.Pool) (*jpegx.PlanarImage, error) {
	return DeriveSecretPlanesPool(sec, threshold, pool).Reconstruct(publicPix, op)
}

// ReconstructRemapped handles the paper's §3.3 extension for one-to-one
// non-linear pointwise remaps (e.g. gamma): invert the remap on the public
// part, reconstruct with the remaining linear operator, then re-apply the
// remap. Some loss is expected (the paper leaves quantifying it to future
// work); tests measure it. publicPix is read, not modified.
func ReconstructRemapped(publicPix *jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, linear imaging.Op, remap imaging.Invertible) (*jpegx.PlanarImage, error) {
	return DeriveSecretPlanesPool(sec, threshold, nil).reconstructOnto(publicPix, linear, remap, new(imaging.FreqScratch))
}
