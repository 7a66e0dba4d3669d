package imaging

import (
	"fmt"
	"math"

	"p3/internal/jpegx"
)

// Crop extracts the rectangle [X, X+W) × [Y, Y+H). Cropping is a linear
// operator; the paper notes cropping at 8×8 boundaries is exactly linear and
// arbitrary crops are approximated by the nearest block boundary — this
// implementation is exact at pixel granularity in the pixel domain, which is
// where P3 reconstruction applies it.
type Crop struct {
	X, Y, W, H int
}

// Linear implements Op.
func (Crop) Linear() bool { return true }

func (c Crop) String() string { return fmt.Sprintf("crop(%d,%d,%dx%d)", c.X, c.Y, c.W, c.H) }

// within clamps the rectangle to a w×h image, returning [x0, x1) × [y0, y1);
// the result is empty when the rectangle misses the image. A far edge past
// the int range counts as past the image, not wrapped around to before it.
func (c Crop) within(w, h int) (x0, y0, x1, y1 int) {
	x0, y0 = clampIdx(c.X, 0, w), clampIdx(c.Y, 0, h)
	x1, y1 = clampIdx(addSaturated(c.X, c.W), x0, w), clampIdx(addSaturated(c.Y, c.H), y0, h)
	return x0, y0, x1, y1
}

// Clamped returns the part of the rectangle inside a w×h image; its W or H
// is zero when the rectangle misses the image.
func (c Crop) Clamped(w, h int) Crop {
	x0, y0, x1, y1 := c.within(w, h)
	return Crop{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// addSaturated returns a + b, held at the int range's end it would overflow.
func addSaturated(a, b int) int {
	if s := a + b; (s < a) == (b < 0) {
		return s
	}
	if b < 0 {
		return math.MinInt
	}
	return math.MaxInt
}

// Apply implements Op. The crop rectangle is clamped to the image bounds; a
// rectangle that misses the image panics (see OutputSize).
func (c Crop) Apply(src *jpegx.PlanarImage) *jpegx.PlanarImage {
	x0, y0, x1, y1 := c.within(src.Width, src.Height)
	w, h := x1-x0, y1-y0
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: empty crop %v of %dx%d image", c, src.Width, src.Height))
	}
	dst := jpegx.NewPlanarImage(w, h, len(src.Planes))
	for pi := range src.Planes {
		for y := 0; y < h; y++ {
			copy(dst.Planes[pi][y*w:y*w+w], src.Planes[pi][(y0+y)*src.Width+x0:(y0+y)*src.Width+x0+w])
		}
	}
	return dst
}
