package p3

import (
	"fmt"

	"p3/internal/imaging"
)

// ResizeFilter selects the resampling kernel a Resize transform uses.
type ResizeFilter int

// The supported resampling kernels, from cheapest to highest-quality.
const (
	FilterBox ResizeFilter = iota
	FilterTriangle
	FilterCatmullRom
	FilterLanczos
)

func (f ResizeFilter) filter() imaging.Filter {
	switch f {
	case FilterBox:
		return imaging.Box
	case FilterTriangle:
		return imaging.Triangle
	case FilterCatmullRom:
		return imaging.CatmullRom
	default:
		return imaging.Lanczos3
	}
}

// String returns the kernel's conventional name (e.g. "lanczos3").
func (f ResizeFilter) String() string { return f.filter().Name }

// Transform is a composition of the pixel-domain operations a photo-sharing
// provider applies to a public part: resizing, cropping, convolution
// filters, and gamma remapping. The zero value is the identity.
//
// Transforms are immutable values: each constructor returns a new Transform,
// and Then appends without mutating its receiver, so partial pipelines can
// be shared freely.
//
// A recipient passes the provider's transform to Codec.JoinProcessed, which
// exploits its linearity (paper Eq. (2)) to reconstruct the photo from the
// processed public part. Gamma is the exception: it is not linear, but as an
// invertible pointwise remap it is still reconstructable when it is the
// final stage (§3.3).
type Transform struct {
	ops []imaging.Op
}

// Resize scales to exactly w×h pixels with the given kernel.
func Resize(w, h int, f ResizeFilter) Transform {
	return Transform{ops: []imaging.Op{imaging.Resize{W: w, H: h, Filter: f.filter()}}}
}

// Crop extracts the w×h rectangle whose top-left corner is (x, y).
func Crop(x, y, w, h int) Transform {
	return Transform{ops: []imaging.Op{imaging.Crop{X: x, Y: y, W: w, H: h}}}
}

// Blur applies a Gaussian blur of the given standard deviation.
func Blur(sigma float64) Transform {
	return Transform{ops: []imaging.Op{imaging.GaussianBlur{Sigma: sigma}}}
}

// Sharpen applies unsharp masking: amount·(src − blur(σ)) is added back to
// the source.
func Sharpen(sigma, amount float64) Transform {
	return Transform{ops: []imaging.Op{imaging.Sharpen{Sigma: sigma, Amount: amount}}}
}

// Gamma applies the pointwise remap v ↦ 255·(v/255)^g. It is the one
// supported non-linear stage and must come last in a transform handed to
// JoinProcessed.
func Gamma(g float64) Transform {
	return Transform{ops: []imaging.Op{imaging.Gamma{G: g}}}
}

// Then returns the composition "t, then next", applied left to right.
func (t Transform) Then(next Transform) Transform {
	ops := make([]imaging.Op, 0, len(t.ops)+len(next.ops))
	ops = append(ops, t.ops...)
	ops = append(ops, next.ops...)
	return Transform{ops: ops}
}

// Linear reports whether every stage commutes with addition and scalar
// multiplication of images — the property reconstruction under a processed
// public part relies on.
func (t Transform) Linear() bool { return t.op().Linear() }

// IsIdentity reports whether the transform has no stages.
func (t Transform) IsIdentity() bool { return len(t.ops) == 0 }

// String renders the pipeline stages joined with " ∘ ", or "identity".
func (t Transform) String() string {
	if t.IsIdentity() {
		return "identity"
	}
	return imaging.Compose(t.ops).String()
}

// op returns the internal operator the transform denotes.
func (t Transform) op() imaging.Op {
	if len(t.ops) == 0 {
		return imaging.Identity{}
	}
	return imaging.Compose(t.ops)
}

// Apply runs the transform over a decoded image in the pixel domain,
// clamping the result to the displayable [0, 255] range. This is what a PSP
// does to a photo between upload and download; tests and simulations use it
// to fabricate served variants. It panics on a transform that JoinProcessed
// would refuse for this image with a *TransformError.
func (t Transform) Apply(im *Image) *Image {
	if im == nil || im.pix == nil {
		return nil
	}
	return &Image{pix: imaging.Clamp(t.op().Apply(im.pix))}
}

// FitWithin returns the dimensions of a (w, h) image scaled down, preserving
// aspect ratio, to fit inside maxW×maxH — the rule PSPs use for their static
// variants. Images already inside the box are unchanged.
func FitWithin(w, h, maxW, maxH int) (int, int) {
	return imaging.FitWithin(w, h, maxW, maxH)
}

var _ fmt.Stringer = Transform{}
