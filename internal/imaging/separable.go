package imaging

import (
	"fmt"

	"p3/internal/jpegx"
)

// Separable is a linear image operator in separable banded form: output
// sample (x, y) of a plane is Σ_j v[y].w[j] · Σ_i h[x].w[i] · src(h[x].start+i,
// v[y].start+j). ApplyPlanes and ApplyFreq fold each run of IDCT, chroma
// upsample, crop, blur and resize into one, so the run costs one pass per
// axis. It agrees with the naive per-stage loops (the test oracles) up to
// float re-association.
type Separable struct {
	srcW, srcH int
	h, v       []weightRange // one row per output column / output row
}

// ApplyPlanes applies op to src. With ApplyFreq it is the one place a linear
// separable stage runs: the leading stages FoldSeparable accepts become one
// pass per axis per plane, the stage that stops the fold (Sharpen, Gamma)
// runs its own Apply on that output, and the stages after it start over. It
// panics on an op that OutputSize(op, src.Width, src.Height) refuses.
func ApplyPlanes(op Op, src *jpegx.PlanarImage) *jpegx.PlanarImage {
	return applyFolded(op, src.Width, src.Height, len(src.Planes), nil, func(i int, sep Separable, _ []float64) []float64 {
		return sep.apply(src.Planes[i])
	})
}

// applyFolded is the frame ApplyPlanes and ApplyFreqOnto share: fold op's
// leading separable stages for a w×h image, run each of the n planes through
// them with plane, then run the stages that stopped the fold on the result.
// With onto non-nil the result is instead added onto onto in place, clamped
// to [0, 255] (addClamp), once after the last stage, and onto is returned:
// when everything folded, plane receives onto's plane and finishes each
// output row onto it; otherwise plane receives nil and the sweep runs after
// the rest. onto must have the output's shape.
func applyFolded(op Op, w, h, n int, onto *jpegx.PlanarImage, plane func(i int, sep Separable, onto []float64) []float64) *jpegx.PlanarImage {
	ow, oh, err := OutputSize(op, w, h)
	if err != nil {
		panic(err)
	}
	if onto != nil && (onto.Width != ow || onto.Height != oh || len(onto.Planes) != n) {
		panic(fmt.Sprintf("imaging: adding a %dx%dx%d image onto a %dx%dx%d one",
			ow, oh, n, onto.Width, onto.Height, len(onto.Planes)))
	}
	sep, rest := FoldSeparable(op, w, h)
	if onto != nil && len(rest) == 0 {
		for i, p := range onto.Planes {
			plane(i, sep, p)
		}
		return onto
	}
	out := &jpegx.PlanarImage{Width: len(sep.h), Height: len(sep.v), Planes: make([][]float64, n)}
	for i := range out.Planes {
		out.Planes[i] = plane(i, sep, nil)
	}
	if len(rest) == 0 {
		return out
	}
	out = rest[0].Apply(out)
	if len(rest) > 1 {
		out = rest[1:].Apply(out)
	}
	if onto == nil {
		return out
	}
	for i, p := range onto.Planes {
		addClamp(p, out.Planes[i])
	}
	return onto
}

// FoldSeparable composes the leading separable stages of op — Identity, Crop,
// GaussianBlur and Resize, with nested Composes flattened — as applied to a
// w×h image, into one weight list per axis. rest holds the stages from the
// first one that does not fold (Sharpen is a sum of two separable operators,
// not one; Gamma is not linear); it is empty when everything folded. op must
// have passed OutputSize(op, w, h).
func FoldSeparable(op Op, w, h int) (sep Separable, rest Compose) {
	sep = Separable{srcW: w, srcH: h, h: identityWeights(w), v: identityWeights(h)}
	stages := flatten(nil, op)
	for i, stage := range stages {
		switch o := stage.(type) {
		case Identity:
		case Crop:
			x0, y0, x1, y1 := o.within(w, h)
			sep.h, sep.v = sep.h[x0:x1], sep.v[y0:y1]
			w, h = x1-x0, y1-y0
		case GaussianBlur:
			if o.Sigma > 0 {
				k := o.Kernel1D()
				sep.h, sep.v = composeWeights(blurWeights(w, k), sep.h), composeWeights(blurWeights(h, k), sep.v)
			}
		case Resize:
			if o.W != w || o.H != h { // a same-size resize is the identity
				sep.h, sep.v = composeWeights(buildWeights(w, o.W, o.Filter), sep.h), composeWeights(buildWeights(h, o.H, o.Filter), sep.v)
				w, h = o.W, o.H
			}
		default:
			return sep, stages[i:]
		}
	}
	return sep, nil
}

func flatten(dst Compose, op Op) Compose {
	if c, ok := op.(Compose); ok {
		for _, stage := range c {
			dst = flatten(dst, stage)
		}
		return dst
	}
	return append(dst, op)
}

// Upsampled returns s preceded by the chroma upsample jpegx's ToPlanar
// applies to a cw×ch component plane of an image s's size: the result reads
// the component at its own resolution. A full-size component returns s.
func (s Separable) Upsampled(cw, ch int) Separable {
	if cw != s.srcW {
		s.h = composeWeights(s.h, upsampleWeights(cw, s.srcW))
	}
	if ch != s.srcH {
		s.v = composeWeights(s.v, upsampleWeights(ch, s.srcH))
	}
	s.srcW, s.srcH = cw, ch
	return s
}

// apply maps one srcW×srcH plane to a new len(h)×len(v) one. The horizontal
// pass covers only the source rows the vertical weights read, so a crop or a
// thumbnail of a crop never touches the rest of the plane.
func (s Separable) apply(src []float64) []float64 {
	dw, dh := len(s.h), len(s.v)
	y0, y1 := weightSpan(s.v)
	mid := make([]float64, dw*(y1-y0))
	resampleRows(src[y0*s.srcW:], s.srcW, y1-y0, mid, dw, s.h)
	v := make([]weightRange, dh) // s.v re-based onto mid's first row
	for i, wr := range s.v {
		v[i] = weightRange{start: wr.start - y0, w: wr.w}
	}
	dst := make([]float64, dw*dh)
	resampleCols(mid, dw, y1-y0, dst, dh, v)
	return dst
}

// weightSpan returns the source range [lo, hi) the rows read between them.
func weightSpan(rows []weightRange) (lo, hi int) {
	if len(rows) == 0 {
		return 0, 0
	}
	lo, hi = rows[0].start, rows[0].start+len(rows[0].w)
	for _, wr := range rows[1:] {
		lo, hi = min(lo, wr.start), max(hi, wr.start+len(wr.w))
	}
	return lo, hi
}

// composeWeights returns b∘a: output i is Σ_j b[i].w[j] · a[b[i].start+j],
// banded over a's source. Every row's weights share one backing array, so a
// request's composition costs a handful of allocations, not one per row.
func composeWeights(b, a []weightRange) []weightRange {
	total := 0
	for _, wr := range b {
		lo, hi := weightSpan(a[wr.start:][:len(wr.w)])
		total += hi - lo
	}
	out := make([]weightRange, len(b))
	back := make([]float64, total)
	for i, wr := range b {
		rows := a[wr.start:][:len(wr.w)]
		lo, hi := weightSpan(rows)
		acc := back[: hi-lo : hi-lo]
		back = back[hi-lo:]
		for j, bw := range wr.w {
			dst := acc[rows[j].start-lo:]
			for k, aw := range rows[j].w {
				dst[k] += bw * aw
			}
		}
		out[i] = weightRange{start: lo, w: acc}
	}
	return out
}

func identityWeights(n int) []weightRange {
	out := make([]weightRange, n)
	back := make([]float64, n)
	for i := range out {
		back[i] = 1
		out[i] = weightRange{start: i, w: back[i : i+1 : i+1]}
	}
	return out
}

// blurWeights is the edge-replicating convolution with kernel k over n
// samples as weight rows: a tap clamped to the border adds its weight to the
// edge sample's.
func blurWeights(n int, k []float64) []weightRange {
	r := len(k) / 2
	out := make([]weightRange, n)
	back := make([]float64, n*len(k))
	for x := range out {
		lo, hi := max(x-r, 0), min(x+r, n-1)
		w := back[x*len(k):][: hi-lo+1 : hi-lo+1]
		for i, kv := range k {
			w[clampIdx(x+i-r, lo, hi)-lo] += kv
		}
		out[x] = weightRange{start: lo, w: w}
	}
	return out
}

// upsampleWeights is jpegx's chroma upsample from cn to n samples as weight
// rows.
func upsampleWeights(cn, n int) []weightRange {
	out := make([]weightRange, n)
	back := make([]float64, 2*n)
	for x := range out {
		near, far := jpegx.UpsampleTap(x, cn, n)
		w := back[2*x : 2*x+2 : 2*x+2]
		switch {
		case far == near:
			w = w[:1]
			w[0] = 1
		case far > near:
			w[0], w[1] = 0.75, 0.25
		default:
			w[0], w[1] = 0.25, 0.75
		}
		out[x] = weightRange{start: min(near, far), w: w}
	}
	return out
}
