package jpegx

// JFIF full-range color conversion between RGB and YCbCr (ITU-R BT.601
// primaries, as required by JFIF). All channels use the full [0, 255] range;
// Cb and Cr are centered on 128.

// RGBToYCbCr converts one 8-bit RGB triple to full-range YCbCr.
func RGBToYCbCr(r, g, b uint8) (y, cb, cr uint8) {
	rf, gf, bf := float64(r), float64(g), float64(b)
	yf := 0.299*rf + 0.587*gf + 0.114*bf
	cbf := 128 - 0.168735892*rf - 0.331264108*gf + 0.5*bf
	crf := 128 + 0.5*rf - 0.418687589*gf - 0.081312411*bf
	return clamp8(yf), clamp8(cbf), clamp8(crf)
}

// YCbCrToRGB converts one full-range YCbCr triple to 8-bit RGB.
func YCbCrToRGB(y, cb, cr uint8) (r, g, b uint8) {
	yf := float64(y)
	cbf := float64(cb) - 128
	crf := float64(cr) - 128
	rf := yf + 1.402*crf
	gf := yf - 0.344136286*cbf - 0.714136286*crf
	bf := yf + 1.772*cbf
	return clamp8(rf), clamp8(gf), clamp8(bf)
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}
