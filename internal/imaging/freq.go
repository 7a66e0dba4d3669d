package imaging

import (
	"sort"

	"p3/internal/jpegx"
)

// FreqPlanes is an image held as its dequantised 8×8 DCT coefficients, each
// component laid out as frequency rows: coefficient (u, v) of block (bx, by)
// sits at row 8·by+v, column 8·bx+u. Only non-zero entries are stored, and
// only rows that hold one, so a coefficient image that is mostly zeros — P3's
// secret part — costs what it holds, not what it covers. Width×Height is the
// grid the components upsample to, as in jpegx's ToPlanar.
type FreqPlanes struct {
	Width, Height int
	Planes        []FreqPlane
}

// FreqPlane is one component: its samples per axis before the chroma
// upsample, and its non-empty frequency rows in increasing Y.
type FreqPlane struct {
	W, H int
	Rows []FreqRow
}

// FreqRow is frequency row Y's non-zero entries: Val[i] at column X[i], in
// increasing X.
type FreqRow struct {
	Y   int
	X   []int32
	Val []float64
}

// ApplyFreq applies op to the image src's coefficients stand for — each
// component's 8×8 IDCT, unshifted, read through the chroma upsample jpegx's
// ToPlanar applies — without materialising it: the IDCT folds into op's
// weights like any other separable stage (overFrequencies), and each plane's
// pass scatters only its non-zero entries (scatter).
//
// With onto non-nil it returns Eq. (2)'s reconstruction instead: that image
// plus onto, clamped to [0, 255], each output row summed and clamped as the
// scatter finishes it (or, when a stage such as Sharpen stops the fold, in
// one sweep after the last stage). onto must have the output's shape and is
// not modified. It panics on an op that OutputSize(op, src.Width,
// src.Height) refuses.
func ApplyFreq(op Op, src *FreqPlanes, onto *jpegx.PlanarImage) *jpegx.PlanarImage {
	var ps Separable
	var ht []weightRange
	return applyFolded(op, src.Width, src.Height, len(src.Planes), onto, func(i int, sep Separable, onto []float64) []float64 {
		p := &src.Planes[i]
		if i == 0 || p.W != src.Planes[i-1].W || p.H != src.Planes[i-1].H { // Cb and Cr share theirs
			ps = sep.Upsampled(p.W, p.H).overFrequencies()
			ht = transposeWeights(ps.h, ps.srcW)
		}
		return ps.scatter(p.Rows, ht, onto)
	})
}

// idctBasis holds the 1-D IDCT's weights by sample: row x is
// jpegx.DCTBasis(u, x) over the frequencies u.
var idctBasis = func() (b [64]float64) {
	for x := 0; x < 8; x++ {
		for u := 0; u < 8; u++ {
			b[8*x+u] = jpegx.DCTBasis(u, x)
		}
	}
	return b
}()

// idctWeights is the 8-point IDCT of an n-sample axis as weight rows over its
// 8·⌈n/8⌉ frequencies: sample x reads the eight of its block through row
// x mod 8 of idctBasis, which every row shares.
func idctWeights(n int) []weightRange {
	out := make([]weightRange, n)
	for x := range out {
		out[x] = weightRange{start: x &^ 7, w: idctBasis[8*(x%8):][:8:8]}
	}
	return out
}

// overFrequencies returns s preceded by the 8×8 IDCT: the result reads the
// frequency rows and columns (see FreqPlanes) of the plane s reads, its axes
// padded to whole blocks.
func (s Separable) overFrequencies() Separable {
	s.h, s.v = composeWeights(s.h, idctWeights(s.srcW)), composeWeights(s.v, idctWeights(s.srcH))
	s.srcW, s.srcH = (s.srcW+7)&^7, (s.srcH+7)&^7
	return s
}

// transposeWeights turns rows, over n sources, around: row c of the result
// holds the weight of source c in each output that reads it, from the first
// such output to the last (zero for one in between that does not).
func transposeWeights(rows []weightRange, n int) []weightRange {
	out := make([]weightRange, n)
	ends := make([]int, n) // one past the last output reading each source; 0 = none
	for x, wr := range rows {
		for c := wr.start; c < wr.start+len(wr.w); c++ {
			if ends[c] == 0 {
				out[c].start = x
			}
			ends[c] = x + 1
		}
	}
	total := 0
	for c, end := range ends {
		total += max(end-out[c].start, 0)
	}
	back := make([]float64, total)
	for c, end := range ends {
		if k := end - out[c].start; k > 0 {
			out[c].w, back = back[:k:k], back[k:]
		}
	}
	for x, wr := range rows {
		for j, w := range wr.w {
			t := &out[wr.start+j]
			t.w[x-t.start] = w
		}
	}
	return out
}

// scatter maps one plane's frequency rows onto a new len(h)×len(v) plane, s
// having been through overFrequencies and ht being s.h transposed. Each
// non-zero entry of a row the vertical weights read adds its transposed
// horizontal weights, scaled, into that row of a buffer holding only those
// rows; each output row then accumulates the buffered rows its vertical
// weights name and, with onto non-nil, adds onto's row and clamps
// (addClamp) while it is still in cache. Rows and columns with no entry cost
// nothing.
func (s Separable) scatter(rows []FreqRow, ht []weightRange, onto []float64) []float64 {
	dw, dh := len(s.h), len(s.v)
	y0, y1 := weightSpan(s.v)
	rows = rows[searchRows(rows, y0):searchRows(rows, y1)]
	mid := make([]float64, dw*len(rows))
	for i, r := range rows {
		m := mid[i*dw:][:dw]
		for j, x := range r.X {
			t := &ht[x]
			d, f := m[t.start:][:len(t.w)], r.Val[j]
			for k, w := range t.w {
				d[k] += f * w
			}
		}
	}
	dst := make([]float64, dw*dh)
	var src [][]float64
	var k []float64
	for y := range s.v {
		wr := &s.v[y]
		src, k = src[:0], k[:0]
		for i := searchRows(rows, wr.start); i < len(rows) && rows[i].Y < wr.start+len(wr.w); i++ {
			src = append(src, mid[i*dw:][:dw])
			k = append(k, wr.w[rows[i].Y-wr.start])
		}
		d := dst[y*dw:][:dw]
		accumulateRows(d, src, k)
		if onto != nil {
			addClamp(d, onto[y*dw:][:dw])
		}
	}
	return dst
}

// searchRows returns the index of the first of rows whose Y is at least y.
func searchRows(rows []FreqRow, y int) int {
	return sort.Search(len(rows), func(i int) bool { return rows[i].Y >= y })
}
