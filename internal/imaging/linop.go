// Package imaging provides the pixel-domain transformations a photo-sharing
// provider applies to uploaded images — resizing with several filter
// kernels, cropping, blurring, sharpening, gamma adjustment — implemented
// over unclamped float64 planes.
//
// The package distinguishes *linear* operators (resize, crop, convolution,
// and their compositions) from non-linear ones (gamma). Linearity is the
// property P3's reconstruction (paper §3.3, Eq. (2)) depends on: for a
// linear A, A·y = A·x_pub + A·x_sec + A·corr, so a recipient can apply the
// PSP's transform to the decrypted secret and correction images and add
// them to the transformed public image. Operating on unclamped floats keeps
// that equality exact: the secret and correction images take values far
// outside [0,255].
package imaging

import (
	"fmt"
	"math"
	"strings"

	"p3/internal/jpegx"
)

// Op is an image transformation. Linear reports whether the operator
// commutes with addition and scalar multiplication of images, which is what
// P3 reconstruction requires of PSP-side processing.
type Op interface {
	Apply(src *jpegx.PlanarImage) *jpegx.PlanarImage
	Linear() bool
	String() string
}

// Identity returns its input unchanged (by deep copy, so callers may mutate).
type Identity struct{}

// Apply implements Op.
func (Identity) Apply(src *jpegx.PlanarImage) *jpegx.PlanarImage { return src.Clone() }

// Linear implements Op.
func (Identity) Linear() bool { return true }

func (Identity) String() string { return "identity" }

// Compose applies ops left to right.
type Compose []Op

// Apply implements Op through ApplyPlanes: each run of separable stages is
// one pass per axis.
func (c Compose) Apply(src *jpegx.PlanarImage) *jpegx.PlanarImage { return ApplyPlanes(c, src) }

// Linear implements Op: a composition is linear iff every stage is.
func (c Compose) Linear() bool {
	for _, op := range c {
		if !op.Linear() {
			return false
		}
	}
	return true
}

func (c Compose) String() string {
	parts := make([]string, len(c))
	for i, op := range c {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ∘ ")
}

// maxBlurRadius bounds a blur's kernel radius ⌈3σ⌉, in samples: well past
// any σ a PSP uses, it stops an operator from outside input from building a
// kernel, and a weight row per sample, as large as its σ asks.
const maxBlurRadius = 64

// OutputSize reports the dimensions op produces from a w×h image, or an
// error when some stage cannot be applied: a crop that misses the image, a
// resize to a non-positive size, a blur or sharpen σ that is not finite or
// whose radius exceeds maxBlurRadius, a sharpen amount that is not finite,
// or a gamma that is not finite and positive. Apply has no defined result
// for such an operator (ApplyPlanes panics on it), so callers holding one
// built from outside input check it here first. Crop and Resize are the only
// operators that change dimensions; every other stage passes them through.
func OutputSize(op Op, w, h int) (int, int, error) {
	switch o := op.(type) {
	case Compose:
		for _, stage := range o {
			var err error
			if w, h, err = OutputSize(stage, w, h); err != nil {
				return 0, 0, err
			}
		}
	case Crop:
		x0, y0, x1, y1 := o.within(w, h)
		if x1 == x0 || y1 == y0 {
			return 0, 0, fmt.Errorf("imaging: %s misses the %dx%d image", o, w, h)
		}
		w, h = x1-x0, y1-y0
	case Resize:
		if o.W <= 0 || o.H <= 0 {
			return 0, 0, fmt.Errorf("imaging: invalid resize target %dx%d", o.W, o.H)
		}
		w, h = o.W, o.H
	case GaussianBlur:
		if !blurRadiusOK(o.Sigma) {
			return 0, 0, fmt.Errorf("imaging: invalid %s: σ must be finite, with ⌈3σ⌉ at most %d", o, maxBlurRadius)
		}
	case Sharpen:
		if !blurRadiusOK(o.Sigma) || math.IsNaN(o.Amount) || math.IsInf(o.Amount, 0) {
			return 0, 0, fmt.Errorf("imaging: invalid %s: σ must be finite, with ⌈3σ⌉ at most %d, and the amount finite", o, maxBlurRadius)
		}
	case Gamma:
		if !(o.G > 0 && o.G < math.Inf(1)) {
			return 0, 0, fmt.Errorf("imaging: invalid %s: gamma must be finite and positive", o)
		}
	}
	return w, h, nil
}

// blurRadiusOK reports whether σ is finite with a kernel radius ⌈3σ⌉ of at
// most maxBlurRadius; a σ ≤ 0 blurs nothing.
func blurRadiusOK(sigma float64) bool {
	return !math.IsInf(sigma, -1) && math.Ceil(3*sigma) <= maxBlurRadius
}

// Invertible is implemented by pointwise one-to-one operators (e.g. gamma).
// Per paper §3.3, such non-linear remaps can be undone on the public part,
// the reconstruction performed, and the remap re-applied.
type Invertible interface {
	Op
	Inverse() Op
}

// Clamp limits all samples to [0, 255] in place and returns the image.
func Clamp(img *jpegx.PlanarImage) *jpegx.PlanarImage {
	for _, p := range img.Planes {
		for i, v := range p {
			if v < 0 {
				p[i] = 0
			} else if v > 255 {
				p[i] = 255
			}
		}
	}
	return img
}

// addClamp sets dst[i] to dst[i] + src[i] limited to [0, 255]: Eq. (2)'s
// sum and the clamp for display in one sweep, rounding exactly as the sum
// followed by Clamp would (NaN and −0 pass unchanged).
func addClamp(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range dst {
		v += src[i]
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		dst[i] = v
	}
}
