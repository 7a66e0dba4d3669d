package imaging

import (
	"fmt"
	"math"

	"p3/internal/jpegx"
)

// GaussianBlur convolves each plane with a σ-parameterized Gaussian.
// Convolution is linear. PSP resize pipelines commonly blur slightly before
// decimation; the pipeline search sweeps σ.
type GaussianBlur struct {
	Sigma float64
}

// Linear implements Op.
func (GaussianBlur) Linear() bool { return true }

func (g GaussianBlur) String() string { return fmt.Sprintf("gaussian(σ=%.2f)", g.Sigma) }

// Kernel1D returns the normalized 1-D Gaussian kernel for σ, radius
// ceil(3σ), which OutputSize bounds by maxBlurRadius.
func (g GaussianBlur) Kernel1D() []float64 {
	if g.Sigma <= 0 {
		return []float64{1}
	}
	r := int(math.Ceil(3 * g.Sigma))
	k := make([]float64, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * g.Sigma * g.Sigma))
		k[i+r] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// Apply implements Op with edge replication through ApplyPlanes, which sums
// the weights of taps clamped to an edge before they multiply the edge sample.
func (g GaussianBlur) Apply(src *jpegx.PlanarImage) *jpegx.PlanarImage {
	return ApplyPlanes(g, src)
}

// Sharpen is an unsharp mask: out = src + Amount·(src − blur_σ(src)).
// Despite the name this is a linear operator (a difference of convolutions),
// so P3 reconstruction survives PSP-side sharpening.
type Sharpen struct {
	Sigma  float64
	Amount float64
}

// Linear implements Op.
func (Sharpen) Linear() bool { return true }

func (s Sharpen) String() string { return fmt.Sprintf("sharpen(σ=%.2f,a=%.2f)", s.Sigma, s.Amount) }

// Apply implements Op.
func (s Sharpen) Apply(src *jpegx.PlanarImage) *jpegx.PlanarImage {
	if s.Amount == 0 || s.Sigma <= 0 {
		return src.Clone()
	}
	// out = (src + a·src) − a·blur, in that order, written over the blur.
	out := GaussianBlur{Sigma: s.Sigma}.Apply(src)
	a, na := s.Amount, -s.Amount
	for pi, p := range out.Planes {
		sp := src.Planes[pi][:len(p)]
		for i, b := range p {
			v := sp[i]
			v += a * sp[i]
			v += na * b
			p[i] = v
		}
	}
	return out
}
