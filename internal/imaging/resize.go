package imaging

import (
	"fmt"
	"math"

	"p3/internal/jpegx"
)

// Filter is a separable resampling kernel.
type Filter struct {
	Name    string
	Support float64 // kernel radius in source pixels at unit scale
	Kernel  func(x float64) float64
}

// The filter set mirrors ImageMagick's common -filter choices, which the
// paper's reverse-engineering methodology (§4.1) sweeps over when matching
// an unknown PSP pipeline.
var (
	// Box is nearest-neighbour at unit scale and a box average when
	// minifying.
	Box = Filter{Name: "box", Support: 0.5, Kernel: func(x float64) float64 {
		if x < -0.5 || x >= 0.5 {
			return 0
		}
		return 1
	}}

	// Triangle is bilinear interpolation.
	Triangle = Filter{Name: "triangle", Support: 1, Kernel: func(x float64) float64 {
		x = math.Abs(x)
		if x >= 1 {
			return 0
		}
		return 1 - x
	}}

	// CatmullRom is the Catmull-Rom cubic (B=0, C=0.5), a common default for
	// photographic downsampling.
	CatmullRom = Filter{Name: "catmullrom", Support: 2, Kernel: func(x float64) float64 {
		x = math.Abs(x)
		switch {
		case x < 1:
			return 1.5*x*x*x - 2.5*x*x + 1
		case x < 2:
			return -0.5*x*x*x + 2.5*x*x - 4*x + 2
		default:
			return 0
		}
	}}

	// Lanczos3 is the 3-lobe Lanczos windowed sinc, ImageMagick's default
	// for downsampling.
	Lanczos3 = Filter{Name: "lanczos3", Support: 3, Kernel: func(x float64) float64 {
		x = math.Abs(x)
		if x >= 3 {
			return 0
		}
		if x < 1e-12 {
			return 1
		}
		px := math.Pi * x
		return 3 * math.Sin(px) * math.Sin(px/3) / (px * px)
	}}
)

// Filters lists all built-in kernels, used by the pipeline parameter search.
func Filters() []Filter { return []Filter{Box, Triangle, CatmullRom, Lanczos3} }

// FilterByName returns the named filter.
func FilterByName(name string) (Filter, error) {
	for _, f := range Filters() {
		if f.Name == name {
			return f, nil
		}
	}
	return Filter{}, fmt.Errorf("imaging: unknown filter %q", name)
}

// Resize scales an image to W×H using the given kernel. When minifying, the
// kernel is stretched by the scale factor (antialiasing), as ImageMagick and
// libswscale do. Resize is a linear operator.
type Resize struct {
	W, H   int
	Filter Filter
}

// Linear implements Op.
func (Resize) Linear() bool { return true }

func (r Resize) String() string {
	return fmt.Sprintf("resize(%dx%d,%s)", r.W, r.H, r.Filter.Name)
}

// Apply implements Op through ApplyPlanes: a horizontal pass, then a vertical.
func (r Resize) Apply(src *jpegx.PlanarImage) *jpegx.PlanarImage { return ApplyPlanes(r, src) }

// weightRange holds normalized contribution weights of source samples
// [start, start+len(w)) for one destination sample.
type weightRange struct {
	start int
	w     []float64
}

// buildWeights computes, for each destination index, the source sample
// weights for a 1-D resample from n to m samples. The rows share one backing
// array; a row spans at most 2·support+1 samples.
func buildWeights(n, m int, f Filter) []weightRange {
	scale := float64(n) / float64(m)
	filterScale := 1.0
	if scale > 1 {
		filterScale = scale // stretch kernel when minifying
	}
	support := f.Support * filterScale
	out := make([]weightRange, m)
	maxTaps := int(2*support) + 1
	back := make([]float64, m*maxTaps)
	for i := 0; i < m; i++ {
		center := (float64(i)+0.5)*scale - 0.5
		lo := int(math.Ceil(center - support))
		hi := int(math.Floor(center + support))
		lo, hi = max(lo, 0), min(hi, n-1)
		if hi < lo { // degenerate: clamp to the nearest sample
			lo = clampIdx(int(center+0.5), 0, n-1)
			hi = lo
		}
		ws := back[i*maxTaps:][: hi-lo+1 : hi-lo+1]
		var sum float64
		for j := lo; j <= hi; j++ {
			w := f.Kernel((float64(j) - center) / filterScale)
			ws[j-lo] = w
			sum += w
		}
		if sum == 0 {
			ws[len(ws)/2] = 1
			sum = 1
		}
		for j := range ws {
			ws[j] /= sum
		}
		out[i] = weightRange{start: lo, w: ws}
	}
	return out
}

// resampleRows resamples every row of src (sw×sh) to dw samples. Each
// output's taps are a contiguous run of its source row, pre-sliced so the
// tap loop carries no bounds check, and summed in tap order from zero. Four
// rows share each weight run so their add chains overlap; past the last row
// the block repeats it, recomputing and rewriting the same samples.
func resampleRows(src []float64, sw, sh int, dst []float64, dw int, weights []weightRange) {
	for y := 0; y < sh; y += 4 {
		y1, y2, y3 := min(y+1, sh-1), min(y+2, sh-1), min(y+3, sh-1)
		s0, s1, s2, s3 := src[y*sw:][:sw], src[y1*sw:][:sw], src[y2*sw:][:sw], src[y3*sw:][:sw]
		d0, d1, d2, d3 := dst[y*dw:][:dw], dst[y1*dw:][:dw], dst[y2*dw:][:dw], dst[y3*dw:][:dw]
		for x := range weights {
			wr := &weights[x]
			n := len(wr.w)
			a, b, c, d := s0[wr.start:][:n], s1[wr.start:][:n], s2[wr.start:][:n], s3[wr.start:][:n]
			var acc0, acc1, acc2, acc3 float64
			for j, w := range wr.w {
				acc0 += w * a[j]
				acc1 += w * b[j]
				acc2 += w * c[j]
				acc3 += w * d[j]
			}
			d0[x], d1[x], d2[x], d3[x] = acc0, acc1, acc2, acc3
		}
	}
}

// resampleCols resamples every column of src (w×sh) to dh samples by
// streaming, for each output row, the source rows its weights name.
func resampleCols(src []float64, w, sh int, dst []float64, dh int, weights []weightRange) {
	var rows [][]float64
	for y := 0; y < dh; y++ {
		wr := &weights[y]
		rows = rows[:0]
		for j := range wr.w {
			rows = append(rows, src[(wr.start+j)*w:(wr.start+j)*w+w])
		}
		accumulateRows(dst[y*w:y*w+w], rows, wr.w)
	}
}

// accumulateRows sets out[x] = Σ k[i]·rows[i][x], summed in tap order from
// zero. Every row has len(out) samples. Five and seven taps, an interior row
// of the two blurs the product instantiates, keep the sum in a register for
// the whole column; other widths (resampling and composed weights, any other
// σ) add four source rows per pass over out.
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

func clampIdx(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// FitWithin returns the dimensions of src scaled to fit inside maxW×maxH
// preserving aspect ratio, never upscaling. This is how PSPs derive their
// static variants (e.g. Facebook's 720×720 and 130×130 boxes, §2.1).
func FitWithin(srcW, srcH, maxW, maxH int) (int, int) {
	if srcW <= maxW && srcH <= maxH {
		return srcW, srcH
	}
	rw := float64(maxW) / float64(srcW)
	rh := float64(maxH) / float64(srcH)
	r := math.Min(rw, rh)
	w := int(math.Round(float64(srcW) * r))
	h := int(math.Round(float64(srcH) * r))
	return max(w, 1), max(h, 1)
}
