// Package psp simulates a photo-sharing provider (Facebook/Flickr in the
// paper) and the untrusted blob store (Dropbox) that holds encrypted secret
// parts. The PSP accepts JPEG uploads over HTTP, strips application markers,
// produces static resized variants (Facebook's thumbnail/"small"/"big"
// boxes), serves dynamic resizes and crops from query parameters, and
// re-encodes everything through a *hidden* resize pipeline — the thing a P3
// proxy must reverse-engineer (§4.1). It requires no knowledge of P3:
// public parts are ordinary JPEGs to it.
package psp

import (
	"bytes"
	"fmt"

	"p3/internal/imaging"
	"p3/internal/jpegx"
)

// Variant names the static sizes a PSP precomputes on upload, mirroring
// Facebook's 720×720 "big", 130×130 "small" and 75×75 thumbnail (§2.1).
type Variant struct {
	Name       string
	MaxW, MaxH int
}

// DefaultVariants are the Facebook-like static sizes.
func DefaultVariants() []Variant {
	return []Variant{
		{Name: "big", MaxW: 720, MaxH: 720},
		{Name: "small", MaxW: 130, MaxH: 130},
		{Name: "thumb", MaxW: 75, MaxH: 75},
	}
}

// Pipeline is the PSP's internal image-processing configuration. It is
// deliberately not exported over the API: the proxy has to recover it by
// calibration.
type Pipeline struct {
	Filter        imaging.Filter
	PreBlur       float64
	SharpenAmount float64
	Gamma         float64 // 1 = none
	Quality       int     // re-encode quality
	Subsampling   jpegx.Subsampling
	Progressive   bool // serve progressive JPEGs, as Facebook does
}

// FacebookLike mimics the pipeline the paper reverse-engineered for
// Facebook: high-quality Lanczos downscale with mild sharpening,
// progressive output, markers stripped.
func FacebookLike() Pipeline {
	return Pipeline{
		Filter:        imaging.Lanczos3,
		SharpenAmount: 0.5,
		Gamma:         1,
		Quality:       85,
		Subsampling:   jpegx.Sub420,
		Progressive:   true,
	}
}

// FlickrLike mimics a simpler pipeline: Catmull-Rom, no sharpening,
// baseline output.
func FlickrLike() Pipeline {
	return Pipeline{
		Filter:      imaging.CatmullRom,
		Gamma:       1,
		Quality:     87,
		Subsampling: jpegx.Sub420,
	}
}

// Op returns the pixel-domain operator for a resize to w×h (the hidden
// "A" of the paper's Eq. (2)).
func (p Pipeline) Op(w, h int) imaging.Op {
	var ops imaging.Compose
	if p.PreBlur > 0 {
		ops = append(ops, imaging.GaussianBlur{Sigma: p.PreBlur})
	}
	ops = append(ops, imaging.Resize{W: w, H: h, Filter: p.Filter})
	if p.SharpenAmount > 0 {
		ops = append(ops, imaging.Sharpen{Sigma: 1, Amount: p.SharpenAmount})
	}
	if p.Gamma != 0 && p.Gamma != 1 {
		ops = append(ops, imaging.Gamma{G: p.Gamma})
	}
	return ops
}

// CropSpec is a dynamic crop request (pixel coordinates in the source
// image), applied before resizing — Facebook encodes both in the GET URL.
type CropSpec struct {
	X, Y, W, H int
}

// Render decodes a stored JPEG, optionally crops, resizes to fit within
// (maxW, maxH), and re-encodes through the pipeline. maxW/maxH of 0 mean
// "original size" (still re-encoded). The returned bytes are what the PSP
// serves.
func (p Pipeline) Render(original []byte, crop *CropSpec, maxW, maxH int) ([]byte, error) {
	im, err := jpegx.Decode(bytes.NewReader(original))
	if err != nil {
		return nil, fmt.Errorf("psp: decoding stored photo: %w", err)
	}
	im.StripMarkers()
	pix := im.ToPlanar()
	if crop != nil {
		c := imaging.Crop{X: crop.X, Y: crop.Y, W: crop.W, H: crop.H}
		if _, _, err := imaging.OutputSize(c, pix.Width, pix.Height); err != nil {
			return nil, fmt.Errorf("psp: %w", err)
		}
		pix = c.Apply(pix)
	}
	w, h := pix.Width, pix.Height
	if maxW > 0 && maxH > 0 {
		w, h = imaging.FitWithin(pix.Width, pix.Height, maxW, maxH)
	}
	out := imaging.Clamp(p.Op(w, h).Apply(pix))
	quality := p.Quality
	if quality == 0 {
		quality = 85
	}
	coeffs, err := out.ToCoeffs(quality, p.Subsampling)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = jpegx.EncodeCoeffs(&buf, coeffs, &jpegx.EncodeOptions{
		Progressive:     p.Progressive,
		OptimizeHuffman: !p.Progressive, // progressive always optimizes
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
