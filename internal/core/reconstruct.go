package core

import (
	"fmt"

	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/work"
)

// SecretPlanes is the variant-independent half of pixel-domain
// reconstruction: the difference image D = IDCT(e) of the effective secret e,
// which stands for both secret-side terms of Eq. (2) (see EffectiveSecret).
// Only the fixed-point IDCT's final rounding differs from transforming the
// secret and correction terms apart: once instead of twice.
//
// D is held the way the IDCT leaves it — every component at its own
// resolution, chroma not yet upsampled — and without the +128 JPEG level
// shift: it is a pure linear term whose samples range far outside [0, 255].
// Reconstruct folds the chroma upsample into the served variant's operator
// instead of materialising full-resolution planes.
//
// A PSP serves one photo as many renditions (thumbnail, feed, full view),
// and every one of them applies its own operator A to the *same* D — so a
// multi-variant consumer derives the planes once and amortizes the secret
// part's IDCT across the whole fan-out. Reconstruct does not mutate the
// planes; a SecretPlanes may be shared by concurrent reconstructions.
type SecretPlanes struct {
	d *jpegx.NativePlanes
}

// DeriveSecretPlanesPool computes the reusable difference planes for one
// secret part: the coefficient fold, then one full-resolution 8×8 IDCT, both
// fanned out over bands on pool (nil runs sequentially, bit-identically).
func DeriveSecretPlanesPool(sec *jpegx.CoeffImage, threshold int, pool *work.Pool) *SecretPlanes {
	return &SecretPlanes{d: EffectiveSecret(sec, threshold, pool).ToNativePlanesPool(0, pool)}
}

// Reconstruct applies Eq. (2) for one served variant: op maps the planes'
// (upsampled) resolution onto the served public part's, exactly as it maps
// the original photo onto that rendition, and the transformed difference
// image is added to the public part and clamped for display.
func (sp *SecretPlanes) Reconstruct(publicPix *jpegx.PlanarImage, op imaging.Op) (*jpegx.PlanarImage, error) {
	if op == nil {
		op = imaging.Identity{}
	}
	if !op.Linear() {
		return nil, fmt.Errorf("core: operator %s is not linear; see ReconstructRemapped", op)
	}
	w, h, err := imaging.OutputSize(op, sp.d.Width, sp.d.Height)
	if err != nil {
		return nil, fmt.Errorf("core: transforming the secret part: %w", err)
	}
	if w != publicPix.Width || h != publicPix.Height || len(sp.d.Planes) != len(publicPix.Planes) {
		return nil, fmt.Errorf("core: transformed secret is %dx%dx%d but public part is %dx%dx%d — wrong operator?",
			w, h, len(sp.d.Planes), publicPix.Width, publicPix.Height, len(publicPix.Planes))
	}
	out := sp.difference(op)
	imaging.AddInto(out, publicPix, 1)
	return imaging.Clamp(out), nil
}

// difference returns A·D for A = op, unclamped, in a fresh image: the chroma
// upsample and op's separable stages run as composed passes straight from
// each component's own plane (imaging.ApplyPlanes). op must have passed
// imaging.OutputSize.
func (sp *SecretPlanes) difference(op imaging.Op) *jpegx.PlanarImage {
	return imaging.ApplyPlanes(op, sp.d)
}

// ReconstructPixelsMulti reconstructs several served variants of one photo
// from a single secret part: the difference planes derive once, then every
// (publics[i], ops[i]) pair applies its own operator to the shared planes.
// All operators must be linear. Results align with the inputs.
func ReconstructPixelsMulti(publics []*jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, ops []imaging.Op, pool *work.Pool) ([]*jpegx.PlanarImage, error) {
	if len(publics) != len(ops) {
		return nil, fmt.Errorf("core: %d public variants but %d operators", len(publics), len(ops))
	}
	if len(publics) == 0 {
		return nil, nil
	}
	sp := DeriveSecretPlanesPool(sec, threshold, pool)
	out := make([]*jpegx.PlanarImage, len(publics))
	err := pool.Do(len(publics), func(i int) error {
		im, err := sp.Reconstruct(publics[i], ops[i])
		if err != nil {
			return fmt.Errorf("core: variant %d: %w", i, err)
		}
		out[i] = im
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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

// ReconstructPixelsPool is ReconstructPixels with the coefficient fold and
// the IDCT fanned out over bands on pool; the result is bit-identical to the
// sequential reconstruction.
func ReconstructPixelsPool(publicPix *jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, op imaging.Op, pool *work.Pool) (*jpegx.PlanarImage, error) {
	return DeriveSecretPlanesPool(sec, threshold, pool).Reconstruct(publicPix, op)
}

// ReconstructRemapped handles the paper's §3.3 extension for one-to-one
// non-linear pointwise remaps (e.g. gamma): invert the remap on the public
// part, reconstruct with the remaining linear operator, then re-apply the
// remap. Some loss is expected (the paper leaves quantifying it to future
// work); tests measure it.
func ReconstructRemapped(publicPix *jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, linear imaging.Op, remap imaging.Invertible) (*jpegx.PlanarImage, error) {
	return ReconstructRemappedPool(publicPix, sec, threshold, linear, remap, nil)
}

// ReconstructRemappedPool is ReconstructRemapped running its inner linear
// reconstruction on pool.
func ReconstructRemappedPool(publicPix *jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, linear imaging.Op, remap imaging.Invertible, pool *work.Pool) (*jpegx.PlanarImage, error) {
	unmapped := remap.Inverse().Apply(publicPix)
	rec, err := ReconstructPixelsPool(unmapped, sec, threshold, linear, pool)
	if err != nil {
		return nil, err
	}
	return imaging.Clamp(remap.Apply(rec)), nil
}
