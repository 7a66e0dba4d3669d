package jpegx

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// PixelEncodeOptions configures lossy encoding of pixels into a JPEG.
type PixelEncodeOptions struct {
	// Quality is the IJG-style quality in [1, 100]. 0 means the default 92,
	// matching the paper's observation that photos uploaded to PSPs "tend to
	// be uploaded with high quality settings" (§3.2).
	Quality int

	// Subsampling chooses the chroma layout. The zero value is 4:4:4;
	// cameras and PSPs typically use 4:2:0.
	Subsampling Subsampling

	EncodeOptions
}

// DefaultQuality is the quality used when PixelEncodeOptions.Quality is 0.
const DefaultQuality = 92

// EncodePixels compresses a planar image to a JPEG stream.
func EncodePixels(w io.Writer, img *PlanarImage, opts *PixelEncodeOptions) error {
	if opts == nil {
		opts = &PixelEncodeOptions{}
	}
	im, err := img.ToCoeffs(opts.Quality, opts.Subsampling)
	if err != nil {
		return err
	}
	return EncodeCoeffs(w, im, &opts.EncodeOptions)
}

// ToCoeffs runs the lossy half of the JPEG encode pipeline — chroma
// downsampling, 8×8 forward DCT and quantization — producing the
// coefficient-domain image that P3's splitter consumes.
func (p *PlanarImage) ToCoeffs(quality int, sub Subsampling) (*CoeffImage, error) {
	return p.ToCoeffsInto(nil, quality, sub, nil)
}

// ToCoeffsInto is ToCoeffs writing into dst, whose component headers and
// coefficient blocks (from an earlier decode or encode) are reused when
// large enough; dst nil allocates a new image. A downsampled chroma plane
// goes through *down, reallocated only when too small (down nil allocates
// one per component). The coefficients are those of ToCoeffs whatever dst
// held before.
func (p *PlanarImage) ToCoeffsInto(dst *CoeffImage, quality int, sub Subsampling, down *[]float64) (*CoeffImage, error) {
	if quality == 0 {
		quality = DefaultQuality
	}
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("jpegx: quality %d out of range [1,100]", quality)
	}
	if p.Width <= 0 || p.Height <= 0 {
		return nil, fmt.Errorf("jpegx: invalid image dimensions %dx%d", p.Width, p.Height)
	}
	if n := len(p.Planes); n != 1 && n != 3 {
		return nil, fmt.Errorf("jpegx: image has %d planes, want 1 (gray) or 3 (YCbCr)", n)
	}
	for i, pl := range p.Planes {
		if len(pl) < p.Width*p.Height {
			return nil, fmt.Errorf("jpegx: plane %d holds %d samples, fewer than %dx%d", i, len(pl), p.Width, p.Height)
		}
	}
	im := dst
	if im == nil {
		im = new(CoeffImage)
	}
	if down == nil {
		down = new([]float64)
	}
	luma, chroma := StandardQuantTables(quality)
	resetForDecode(im)
	im.Width, im.Height = p.Width, p.Height
	im.Quant[0] = &luma
	n := len(p.Planes)
	im.Components = slices.Grow(im.Components, n)[:n]
	for ci := range im.Components { // Blocks is reused below
		c := &im.Components[ci]
		c.ID, c.H, c.V, c.TqIndex = byte(ci+1), 1, 1, min(ci, 1)
	}
	if n == 3 {
		im.Quant[1] = &chroma
		im.Components[0].H, im.Components[0].V = sub.factors()
	}
	mcusX, mcusY := im.mcuDims()
	hMax, vMax := im.MaxSampling()
	for ci := range im.Components {
		c := &im.Components[ci]
		c.BlocksX = mcusX * c.H
		c.BlocksY = mcusY * c.V
		// fdctPlane writes every coefficient of every block, so reused
		// blocks need no clearing.
		c.Blocks = slices.Grow(c.Blocks[:0], c.BlocksX*c.BlocksY)[:c.BlocksX*c.BlocksY]

		// Component-resolution plane: downsample chroma if needed, then pad
		// (edge-replicate) to the full block extent.
		cw := (p.Width*c.H + hMax - 1) / hMax
		ch := (p.Height*c.V + vMax - 1) / vMax
		plane := p.Planes[ci]
		if cw != p.Width || ch != p.Height {
			*down = downsamplePlane(p.Planes[ci], p.Width, p.Height, cw, ch, *down)
			plane = *down
		}
		fdctPlane(plane, cw, ch, c, newQuantizer(im.Quant[c.TqIndex]))
	}
	return im, nil
}

// downsamplePlane box-averages a w×h plane to cw×ch (factors 1 or 2) into
// dst, reallocated only when too small, and returns it: each output is the
// sum of its box's samples, left to right and top to bottom from zero, over
// the box's size. Interior boxes are one expression per output; a box
// hanging over the last odd row or column repeats the edge sample
// (downsampleEdge).
func downsamplePlane(src []float64, w, h, cw, ch int, dst []float64) []float64 {
	dst = slices.Grow(dst[:0], cw*ch)[:cw*ch]
	fx, fy := (w+cw-1)/cw, (h+ch-1)/ch
	iw, ih := w/fx, h/fy // outputs whose box lies inside the plane
	for y := 0; y < ih; y++ {
		r0, r1 := src[y*fy*w:][:w], src[(y*fy+fy-1)*w:][:w]
		out := dst[y*cw:][:iw]
		// The leading 0 is the empty sum the box starts from: it turns a box
		// of −0 samples into +0, as summing from zero does.
		switch {
		case fx == 2 && fy == 2:
			for x := range out {
				out[x] = (0 + r0[2*x] + r0[2*x+1] + r1[2*x] + r1[2*x+1]) / 4
			}
		case fx == 2:
			for x := range out {
				out[x] = (0 + r0[2*x] + r0[2*x+1]) / 2
			}
		default: // fx == 1, fy == 2
			for x := range out {
				out[x] = (0 + r0[x] + r1[x]) / 2
			}
		}
	}
	for y := 0; y < ch; y++ {
		x0 := iw
		if y >= ih {
			x0 = 0
		}
		for x := x0; x < cw; x++ {
			dst[y*cw+x] = downsampleEdge(src, w, h, fx, fy, x, y)
		}
	}
	return dst
}

// downsampleEdge is output (x, y) of downsamplePlane summed tap by tap, each
// tap clamped to the plane.
func downsampleEdge(src []float64, w, h, fx, fy, x, y int) float64 {
	var sum float64
	for dy := 0; dy < fy; dy++ {
		sy := min(y*fy+dy, h-1)
		for dx := 0; dx < fx; dx++ {
			sum += src[sy*w+min(x*fx+dx, w-1)]
		}
	}
	return sum / float64(fx*fy)
}

// fdctPlane level-shifts, pads, transforms and quantizes a component plane
// into its coefficient blocks. A block inside the plane reads its eight rows
// as slices; one past the right or bottom edge repeats the edge samples.
func fdctPlane(plane []float64, cw, ch int, c *Component, z *quantizer) {
	var samples, coeffs [64]int32
	for by := 0; by < c.BlocksY; by++ {
		for bx := 0; bx < c.BlocksX; bx++ {
			x0, y0 := 8*bx, 8*by
			if x0+8 <= cw && y0+8 <= ch {
				for y := 0; y < 8; y++ {
					row, s := plane[(y0+y)*cw+x0:][:8], samples[8*y:][:8]
					for x, v := range row {
						s[x] = int32(math.Round(v - 128))
					}
				}
			} else {
				for y := 0; y < 8; y++ {
					sy := min(y0+y, ch-1)
					for x := 0; x < 8; x++ {
						samples[8*y+x] = int32(math.Round(plane[sy*cw+min(x0+x, cw-1)] - 128))
					}
				}
			}
			FDCT8x8Int(&samples, &coeffs)
			quantizeBlockInt(&coeffs, z, c.Block(bx, by))
		}
	}
}
