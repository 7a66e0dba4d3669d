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
// ceil(3σ).
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

// Apply implements Op.
func (g GaussianBlur) Apply(src *jpegx.PlanarImage) *jpegx.PlanarImage {
	if g.Sigma <= 0 {
		return src.Clone()
	}
	k := g.Kernel1D()
	dst := jpegx.NewPlanarImage(src.Width, src.Height, len(src.Planes))
	tmp := make([]float64, src.Width*src.Height)
	for pi := range src.Planes {
		convolveH(src.Planes[pi], tmp, src.Width, src.Height, k)
		convolveV(tmp, dst.Planes[pi], src.Width, src.Height, k)
	}
	return dst
}

// convolveH applies a horizontal 1-D kernel with edge replication. Columns
// whose taps all fall inside the row take a clamp-free loop over a pre-sliced
// window; only the border columns pay for clampIdx. Every output sums its
// products in tap order starting from zero, whichever loop computes it.
func convolveH(src, dst []float64, w, h int, k []float64) {
	n := len(k)
	r := n / 2
	lo, hi := r, w-(n-1-r) // interior columns [lo, hi)
	if hi <= lo {
		lo, hi = 0, 0
	}
	for y := 0; y < h; y++ {
		row := src[y*w : y*w+w]
		orow := dst[y*w : y*w+w]
		convolveEdge(row, orow, 0, lo, k)
		convolveEdge(row, orow, hi, w, k)
		if lo == hi {
			continue
		}
		// Interior output lo+i reads row[i : i+n], so the window is the row.
		out := orow[lo:hi]
		switch n {
		case 5: // σ = 0.5, the pre-blur calibration sweeps
			convolveRow5(row, out, k)
		case 7: // σ = 1, the unsharp mask's blur
			convolveRow7(row, out, k)
		default:
			convolveRowN(row, out, k)
		}
	}
}

// convolveEdge computes columns [x0, x1) of one row with clamped taps.
func convolveEdge(row, orow []float64, x0, x1 int, k []float64) {
	r := len(k) / 2
	for x := x0; x < x1; x++ {
		var acc float64
		for i, kv := range k {
			acc += kv * row[clampIdx(x+i-r, 0, len(row)-1)]
		}
		orow[x] = acc
	}
}

// convolveRow5 sets out[i] = Σ k[j]·in[i+j] for the len(in)−4 outputs a
// 5-tap window fits, sliding the window through registers: one load, five
// multiply-adds and one store per output.
func convolveRow5(in, out, k []float64) {
	k0, k1, k2, k3, k4 := k[0], k[1], k[2], k[3], k[4]
	s0, s1, s2, s3 := in[0], in[1], in[2], in[3]
	in = in[4:]
	out = out[:len(in)]
	for i, s4 := range in {
		var acc float64
		acc += k0 * s0
		acc += k1 * s1
		acc += k2 * s2
		acc += k3 * s3
		acc += k4 * s4
		out[i] = acc
		s0, s1, s2, s3 = s1, s2, s3, s4
	}
}

// convolveRow7 is convolveRow5 for seven taps.
func convolveRow7(in, out, k []float64) {
	k0, k1, k2, k3, k4, k5, k6 := k[0], k[1], k[2], k[3], k[4], k[5], k[6]
	s0, s1, s2, s3, s4, s5 := in[0], in[1], in[2], in[3], in[4], in[5]
	in = in[6:]
	out = out[:len(in)]
	for i, s6 := range in {
		var acc float64
		acc += k0 * s0
		acc += k1 * s1
		acc += k2 * s2
		acc += k3 * s3
		acc += k4 * s4
		acc += k5 * s5
		acc += k6 * s6
		out[i] = acc
		s0, s1, s2, s3, s4, s5 = s1, s2, s3, s4, s5, s6
	}
}

// convolveRowN is convolveRow5 for any kernel width, four outputs at a time
// so the four accumulators' add chains overlap.
func convolveRowN(in, out, k []float64) {
	n := len(k)
	i := 0
	for ; i+4 <= len(out); i += 4 {
		a, b, c, d := in[i:i+n], in[i+1:i+1+n], in[i+2:i+2+n], in[i+3:i+3+n]
		var acc0, acc1, acc2, acc3 float64
		for j, kv := range k {
			acc0 += kv * a[j]
			acc1 += kv * b[j]
			acc2 += kv * c[j]
			acc3 += kv * d[j]
		}
		out[i], out[i+1], out[i+2], out[i+3] = acc0, acc1, acc2, acc3
	}
	for ; i < len(out); i++ {
		a := in[i : i+n]
		var acc float64
		for j, kv := range k {
			acc += kv * a[j]
		}
		out[i] = acc
	}
}

// convolveV applies a vertical 1-D kernel with edge replication. Each output
// row streams its len(k) source rows left to right; the row index is clamped
// once per tap per row, so border rows cost the same as interior ones.
func convolveV(src, dst []float64, w, h int, k []float64) {
	r := len(k) / 2
	rows := make([][]float64, len(k))
	for y := 0; y < h; y++ {
		for i := range rows {
			sy := clampIdx(y+i-r, 0, h-1)
			rows[i] = src[sy*w : sy*w+w]
		}
		accumulateRows(dst[y*w:y*w+w], rows, k)
	}
}

// accumulateRows sets out[x] = Σ k[i]·rows[i][x], summed in tap order from
// zero. Every row has len(out) samples. Five and seven taps, the two blurs
// the product instantiates, keep the sum in a register for the whole column;
// other widths (resampling weights, any other σ) add four source rows per
// pass over out.
func accumulateRows(out []float64, rows [][]float64, k []float64) {
	n := len(out)
	switch len(k) {
	case 5:
		k0, k1, k2, k3, k4 := k[0], k[1], k[2], k[3], k[4]
		r0, r1, r2, r3, r4 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n], rows[4][:n]
		for x := range out {
			var acc float64
			acc += k0 * r0[x]
			acc += k1 * r1[x]
			acc += k2 * r2[x]
			acc += k3 * r3[x]
			acc += k4 * r4[x]
			out[x] = acc
		}
	case 7:
		k0, k1, k2, k3, k4, k5, k6 := k[0], k[1], k[2], k[3], k[4], k[5], k[6]
		r0, r1, r2, r3, r4, r5, r6 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n], rows[4][:n], rows[5][:n], rows[6][:n]
		for x := range out {
			var acc float64
			acc += k0 * r0[x]
			acc += k1 * r1[x]
			acc += k2 * r2[x]
			acc += k3 * r3[x]
			acc += k4 * r4[x]
			acc += k5 * r5[x]
			acc += k6 * r6[x]
			out[x] = acc
		}
	default:
		for x := range out {
			out[x] = 0
		}
		i := 0
		for ; i+4 <= len(k); i += 4 {
			k0, k1, k2, k3 := k[i], k[i+1], k[i+2], k[i+3]
			r0, r1, r2, r3 := rows[i][:n], rows[i+1][:n], rows[i+2][:n], rows[i+3][:n]
			for x, acc := range out {
				acc += k0 * r0[x]
				acc += k1 * r1[x]
				acc += k2 * r2[x]
				acc += k3 * r3[x]
				out[x] = acc
			}
		}
		for ; i < len(k); i++ {
			kv := k[i]
			for x, s := range rows[i][:n] {
				out[x] += kv * s
			}
		}
	}
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
