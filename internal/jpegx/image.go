package jpegx

import (
	"errors"
	"fmt"
	"image"
	"image/color"
)

// Block is one 8×8 block of quantized DCT coefficients in natural
// (row-major) order. Block[0] is the DC coefficient.
type Block [64]int32

// Component holds the quantized DCT coefficients of one color component.
type Component struct {
	ID      byte // component identifier from the SOF segment (1=Y, 2=Cb, 3=Cr by convention)
	H, V    int  // horizontal and vertical sampling factors (1 or 2 here)
	TqIndex int  // index of the quantization table used by this component

	// BlocksX and BlocksY give the coefficient array dimensions in blocks.
	// They cover the full interleaved-MCU extent, which may exceed the
	// ceil(size/8) implied by the image dimensions when sampling factors
	// require padding.
	BlocksX, BlocksY int

	// Blocks is the row-major [BlocksY][BlocksX] coefficient array.
	Blocks []Block
}

// Block returns a pointer to the block at block coordinates (bx, by).
func (c *Component) Block(bx, by int) *Block {
	return &c.Blocks[by*c.BlocksX+bx]
}

// Clone returns a deep copy of the component.
func (c *Component) Clone() Component {
	d := *c
	d.Blocks = append([]Block(nil), c.Blocks...)
	return d
}

// MarkerSegment is a preserved non-structural marker (APPn or COM).
type MarkerSegment struct {
	Marker byte // e.g. 0xE0 for APP0, 0xFE for COM
	Data   []byte
}

// CoeffImage is a JPEG image in the quantized-DCT-coefficient domain: the
// representation produced after the quantization step of the encode pipeline
// and before entropy coding. It is the domain on which P3's splitter
// operates. A CoeffImage re-encodes to a JPEG byte stream without loss.
type CoeffImage struct {
	Width, Height int
	Components    []Component
	Quant         [4]*QuantTable // indexed by Component.TqIndex; nil if unused
	Progressive   bool           // decoded-from or encode-to progressive mode
	RestartIntvl  int            // restart interval in MCUs (0 = none)
	Markers       []MarkerSegment
}

// MaxSampling returns the maximum sampling factors across components.
func (im *CoeffImage) MaxSampling() (hMax, vMax int) {
	for i := range im.Components {
		if im.Components[i].H > hMax {
			hMax = im.Components[i].H
		}
		if im.Components[i].V > vMax {
			vMax = im.Components[i].V
		}
	}
	return hMax, vMax
}

// ComponentSize returns the samples component ci holds per axis, the
// resolution the IDCT leaves it at before the chroma upsample: its sampling
// factor's share of Width×Height, rounded up.
func (im *CoeffImage) ComponentSize(ci int) (w, h int) {
	hMax, vMax := im.MaxSampling()
	c := &im.Components[ci]
	return (im.Width*c.H + hMax - 1) / hMax, (im.Height*c.V + vMax - 1) / vMax
}

// mcuDims returns the MCU grid dimensions.
func (im *CoeffImage) mcuDims() (mcusX, mcusY int) {
	hMax, vMax := im.MaxSampling()
	mcusX = (im.Width + 8*hMax - 1) / (8 * hMax)
	mcusY = (im.Height + 8*vMax - 1) / (8 * vMax)
	return mcusX, mcusY
}

// Clone returns a deep copy of the coefficient image.
func (im *CoeffImage) Clone() *CoeffImage {
	return im.cloneInto(nil, true)
}

// CloneInto deep-copies im into dst, reusing dst's component and block
// storage when its capacity suffices, and returns dst. CloneInto(nil) is
// Clone. The result shares no memory with im, so pooled callers can recycle
// dst across images without aliasing.
func (im *CoeffImage) CloneInto(dst *CoeffImage) *CoeffImage {
	return im.cloneInto(dst, true)
}

// CloneShapeInto is CloneInto without copying the coefficient contents: the
// result has im's geometry, sampling, quantization tables and markers, but
// its blocks hold unspecified (possibly stale) values. Callers that are
// about to overwrite every coefficient — the band split and reconstruction
// writers do — use it to skip the multi-megabyte block copy.
func (im *CoeffImage) CloneShapeInto(dst *CoeffImage) *CoeffImage {
	return im.cloneInto(dst, false)
}

func (im *CoeffImage) cloneInto(dst *CoeffImage, copyBlocks bool) *CoeffImage {
	if dst == nil {
		dst = &CoeffImage{}
	}
	if dst == im {
		return dst
	}
	prevComps := dst.Components
	*dst = CoeffImage{
		Width:        im.Width,
		Height:       im.Height,
		Progressive:  im.Progressive,
		RestartIntvl: im.RestartIntvl,
	}
	if cap(prevComps) >= len(im.Components) {
		dst.Components = prevComps[:len(im.Components)]
	} else {
		dst.Components = make([]Component, len(im.Components))
	}
	for i := range im.Components {
		src := &im.Components[i]
		d := &dst.Components[i]
		blocks := d.Blocks
		*d = *src
		switch {
		case cap(blocks) >= len(src.Blocks):
			d.Blocks = blocks[:len(src.Blocks)]
			if copyBlocks {
				copy(d.Blocks, src.Blocks)
			}
		case copyBlocks:
			d.Blocks = append([]Block(nil), src.Blocks...)
		default:
			d.Blocks = make([]Block, len(src.Blocks))
		}
	}
	for i, q := range im.Quant {
		if q != nil {
			qq := *q
			dst.Quant[i] = &qq
		}
	}
	for _, m := range im.Markers {
		dst.Markers = append(dst.Markers, MarkerSegment{Marker: m.Marker, Data: append([]byte(nil), m.Data...)})
	}
	return dst
}

// validate checks structural consistency before encoding.
func (im *CoeffImage) validate() error {
	if im.Width <= 0 || im.Height <= 0 {
		return fmt.Errorf("jpegx: invalid dimensions %dx%d", im.Width, im.Height)
	}
	if n := len(im.Components); n != 1 && n != 3 {
		return fmt.Errorf("jpegx: unsupported component count %d", n)
	}
	mcusX, mcusY := im.mcuDims()
	for i := range im.Components {
		c := &im.Components[i]
		if c.H < 1 || c.H > 2 || c.V < 1 || c.V > 2 {
			return fmt.Errorf("jpegx: component %d has unsupported sampling %dx%d", i, c.H, c.V)
		}
		if c.TqIndex < 0 || c.TqIndex > 3 || im.Quant[c.TqIndex] == nil {
			return fmt.Errorf("jpegx: component %d references missing quant table %d", i, c.TqIndex)
		}
		wantX, wantY := mcusX*c.H, mcusY*c.V
		if c.BlocksX != wantX || c.BlocksY != wantY {
			return fmt.Errorf("jpegx: component %d block dims %dx%d, want %dx%d", i, c.BlocksX, c.BlocksY, wantX, wantY)
		}
		if len(c.Blocks) != c.BlocksX*c.BlocksY {
			return fmt.Errorf("jpegx: component %d has %d blocks, want %d", i, len(c.Blocks), c.BlocksX*c.BlocksY)
		}
	}
	for i, q := range im.Quant {
		if q != nil {
			if err := q.validate(); err != nil {
				return fmt.Errorf("jpegx: table %d: %w", i, err)
			}
		}
	}
	return nil
}

// Subsampling identifies the chroma subsampling layout of a 3-component image.
type Subsampling int

// Supported chroma subsampling modes.
const (
	Sub444 Subsampling = iota // no subsampling
	Sub422                    // chroma halved horizontally
	Sub440                    // chroma halved vertically
	Sub420                    // chroma halved in both directions
)

func (s Subsampling) factors() (lumaH, lumaV int) {
	switch s {
	case Sub444:
		return 1, 1
	case Sub422:
		return 2, 1
	case Sub440:
		return 1, 2
	default:
		return 2, 2
	}
}

// String returns the conventional name, e.g. "4:2:0".
func (s Subsampling) String() string {
	switch s {
	case Sub444:
		return "4:4:4"
	case Sub422:
		return "4:2:2"
	case Sub440:
		return "4:4:0"
	case Sub420:
		return "4:2:0"
	}
	return fmt.Sprintf("Subsampling(%d)", int(s))
}

// DetectSubsampling reports the subsampling mode of a decoded image, or an
// error for layouts this package does not produce.
func (im *CoeffImage) DetectSubsampling() (Subsampling, error) {
	if len(im.Components) == 1 {
		return Sub444, nil
	}
	if len(im.Components) != 3 {
		return 0, fmt.Errorf("jpegx: %d components", len(im.Components))
	}
	y, cb, cr := &im.Components[0], &im.Components[1], &im.Components[2]
	if cb.H != 1 || cb.V != 1 || cr.H != 1 || cr.V != 1 {
		return 0, errors.New("jpegx: unsupported chroma sampling factors")
	}
	switch {
	case y.H == 1 && y.V == 1:
		return Sub444, nil
	case y.H == 2 && y.V == 1:
		return Sub422, nil
	case y.H == 1 && y.V == 2:
		return Sub440, nil
	case y.H == 2 && y.V == 2:
		return Sub420, nil
	}
	return 0, errors.New("jpegx: unsupported luma sampling factors")
}

// PlanarImage is a full-resolution planar image: Y alone (grayscale) or
// Y, Cb, Cr, each Width×Height (chroma already upsampled). Sample values are
// in [0, 255] stored as float64 so that linear PSP transforms and P3's
// pixel-domain reconstruction, which needs values outside [0,255] for the
// secret and correction images, compose without clipping.
type PlanarImage struct {
	Width, Height int
	Planes        [][]float64 // 1 or 3 planes, each Width*Height row-major
}

// NewPlanarImage allocates a planar image with n planes of w×h.
func NewPlanarImage(w, h, n int) *PlanarImage {
	p := &PlanarImage{Width: w, Height: h, Planes: make([][]float64, n)}
	for i := range p.Planes {
		p.Planes[i] = make([]float64, w*h)
	}
	return p
}

// Clone returns a deep copy.
func (p *PlanarImage) Clone() *PlanarImage {
	q := &PlanarImage{Width: p.Width, Height: p.Height, Planes: make([][]float64, len(p.Planes))}
	for i := range p.Planes {
		q.Planes[i] = append([]float64(nil), p.Planes[i]...)
	}
	return q
}

// Gray returns true if the image has a single plane.
func (p *PlanarImage) Gray() bool { return len(p.Planes) == 1 }

// ToImage converts to an 8-bit image.Image (Gray or RGBA), clamping samples.
func (p *PlanarImage) ToImage() image.Image {
	if p.Gray() {
		g := image.NewGray(image.Rect(0, 0, p.Width, p.Height))
		for i, v := range p.Planes[0] {
			g.Pix[i] = clamp8(v)
		}
		return g
	}
	rgba := image.NewRGBA(image.Rect(0, 0, p.Width, p.Height))
	for i := 0; i < p.Width*p.Height; i++ {
		r, g, b := YCbCrToRGB(clamp8(p.Planes[0][i]), clamp8(p.Planes[1][i]), clamp8(p.Planes[2][i]))
		rgba.Pix[4*i+0] = r
		rgba.Pix[4*i+1] = g
		rgba.Pix[4*i+2] = b
		rgba.Pix[4*i+3] = 255
	}
	return rgba
}

// FromImage converts an image.Image into a planar YCbCr (or grayscale for
// *image.Gray) image.
func FromImage(src image.Image) *PlanarImage {
	b := src.Bounds()
	w, h := b.Dx(), b.Dy()
	if g, ok := src.(*image.Gray); ok {
		p := NewPlanarImage(w, h, 1)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p.Planes[0][y*w+x] = float64(g.GrayAt(b.Min.X+x, b.Min.Y+y).Y)
			}
		}
		return p
	}
	p := NewPlanarImage(w, h, 3)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			yy, cb, cr := RGBToYCbCr(uint8(r>>8), uint8(g>>8), uint8(bl>>8))
			i := y*w + x
			p.Planes[0][i] = float64(yy)
			p.Planes[1][i] = float64(cb)
			p.Planes[2][i] = float64(cr)
		}
	}
	return p
}

// At returns the clamped 8-bit color at (x, y); used by tests.
func (p *PlanarImage) At(x, y int) color.Color {
	i := y*p.Width + x
	if p.Gray() {
		return color.Gray{Y: clamp8(p.Planes[0][i])}
	}
	r, g, b := YCbCrToRGB(clamp8(p.Planes[0][i]), clamp8(p.Planes[1][i]), clamp8(p.Planes[2][i]))
	return color.RGBA{R: r, G: g, B: b, A: 255}
}
