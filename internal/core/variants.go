package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"p3/internal/imaging"
	"p3/internal/jpegx"
)

// The multi-variant secret optimization of §5.3: "this additional bandwidth
// usage can be reduced by trading off storage: a sender can upload multiple
// encrypted secret parts, one for each known static transformation that a
// PSP performs. We have not implemented this optimization." — the paper
// leaves it there; this file implements it.
//
// For a known static variant (say Facebook's 130×130 "small") produced by a
// linear operator A, Eq. (2) reconstruction adds A·IDCT(e) — e the
// effective secret, see SecretPlanes — to the served public part. That term
// is known to the sender at upload time, so it is precomputed as a single
// difference image D at the variant's (small) resolution. D is stored as an
// ordinary lossy JPEG of (D/2 + 128) — exactly the "correction term in a
// lossy JPEG format" whose small quantization cost the paper's footnote 8
// discusses — and sealed like any other secret payload. A recipient
// browsing thumbnails then downloads a secret part sized for thumbnails.

// VariantSecret is one precomputed, resolution-matched secret part.
type VariantSecret struct {
	W, H      int
	Threshold int
	// D is the transformed difference image A·IDCT(e); adding it to the
	// served variant completes Eq. (2).
	D *jpegx.PlanarImage
}

// variantScale maps the difference image's dynamic range into 8 bits for
// JPEG transport: stored = D/variantScale + 128.
const variantScale = 2.0

// BuildVariantSecret precomputes the secret material for a static variant
// of size w×h produced by op (which must be linear and map the full-size
// image to w×h).
func BuildVariantSecret(sec *jpegx.CoeffImage, threshold int, op imaging.Op, w, h int) (*VariantSecret, error) {
	if !op.Linear() {
		return nil, fmt.Errorf("core: variant operator %s is not linear", op)
	}
	d := op.Apply(DeriveSecretPlanes(sec, threshold).D)
	if d.Width != w || d.Height != h {
		return nil, fmt.Errorf("core: operator produced %dx%d, want %dx%d", d.Width, d.Height, w, h)
	}
	return &VariantSecret{W: w, H: h, Threshold: threshold, D: d}, nil
}

// ReconstructVariant combines a PSP-served variant with the precomputed
// difference image: out = served + D, clamped.
func (v *VariantSecret) ReconstructVariant(served *jpegx.PlanarImage) (*jpegx.PlanarImage, error) {
	if served.Width != v.W || served.Height != v.H {
		return nil, fmt.Errorf("core: served variant is %dx%d, secret is for %dx%d",
			served.Width, served.Height, v.W, v.H)
	}
	if len(served.Planes) != len(v.D.Planes) {
		return nil, errors.New("core: plane count mismatch")
	}
	out := served.Clone()
	imaging.AddInto(out, v.D, 1)
	return imaging.Clamp(out), nil
}

// Marshal serializes the variant secret: a fixed header followed by a JPEG
// of the range-compressed difference image. Callers seal the result with
// SealSecret like any other secret payload.
func (v *VariantSecret) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("P3V1")
	for _, x := range []uint16{uint16(v.W), uint16(v.H), uint16(v.Threshold)} {
		if err := binary.Write(&buf, binary.BigEndian, x); err != nil {
			return nil, err
		}
	}
	shifted := v.D.Clone()
	for _, p := range shifted.Planes {
		for i, s := range p {
			p[i] = s/variantScale + 128
		}
	}
	imaging.Clamp(shifted)
	coeffs, err := shifted.ToCoeffs(95, jpegx.Sub444)
	if err != nil {
		return nil, err
	}
	if err := jpegx.EncodeCoeffs(&buf, coeffs, &jpegx.EncodeOptions{OptimizeHuffman: true}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalVariantSecret parses a container produced by Marshal.
func UnmarshalVariantSecret(data []byte) (*VariantSecret, error) {
	if len(data) < 10 || string(data[:4]) != "P3V1" {
		return nil, errors.New("core: not a variant-secret container")
	}
	w := int(binary.BigEndian.Uint16(data[4:6]))
	h := int(binary.BigEndian.Uint16(data[6:8]))
	threshold := int(binary.BigEndian.Uint16(data[8:10]))
	if w <= 0 || h <= 0 {
		return nil, errors.New("core: malformed variant-secret header")
	}
	im, err := jpegx.Decode(bytes.NewReader(data[10:]))
	if err != nil {
		return nil, fmt.Errorf("core: variant-secret payload: %w", err)
	}
	if im.Width != w || im.Height != h {
		return nil, fmt.Errorf("core: payload is %dx%d, header says %dx%d", im.Width, im.Height, w, h)
	}
	d := im.ToPlanar()
	for _, p := range d.Planes {
		for i, s := range p {
			p[i] = (s - 128) * variantScale
		}
	}
	return &VariantSecret{W: w, H: h, Threshold: threshold, D: d}, nil
}
