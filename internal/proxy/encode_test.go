package proxy

import (
	"bytes"
	"net/url"
	"testing"

	"p3"
	"p3/internal/core"
	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/psp"
)

// benchVariants are the renditions the repository benchmark requests: the
// three stored sizes, the full view, three dynamic resizes and a crop.
var benchVariants = []string{
	"size=thumb", "size=small", "size=big", "",
	"w=320&h=240", "w=128&h=96", "w=480&h=360",
	"crop=32,32,160,120&w=200&h=150",
}

// effectiveFreq is the effective secret of sec (see core.SecretPlanes) as
// frequency rows, folded coefficient by coefficient: s − 2T for a negative
// AC s, dequantised, at row 8·by+v, column 8·bx+u, non-zeros only, padding
// blocks skipped.
func effectiveFreq(sec *jpegx.CoeffImage, threshold int) *imaging.FreqPlanes {
	f := &imaging.FreqPlanes{Width: sec.Width, Height: sec.Height}
	for ci := range sec.Components {
		c := &sec.Components[ci]
		q := sec.Quant[c.TqIndex]
		p := imaging.FreqPlane{}
		p.W, p.H = sec.ComponentSize(ci)
		for y := 0; y < (p.H+7)&^7; y++ {
			row := imaging.FreqRow{Y: y}
			for x := 0; x < (p.W+7)&^7; x++ {
				k := 8*(y%8) + x%8
				s := c.Block(x/8, y/8)[k]
				if s < 0 && k > 0 {
					s -= int32(2 * threshold)
				}
				if s != 0 {
					row.X = append(row.X, int32(x))
					row.Val = append(row.Val, float64(s)*float64(q[k]))
				}
			}
			if len(row.X) > 0 {
				p.Rows = append(p.Rows, row)
			}
		}
		f.Planes = append(f.Planes, p)
	}
	return f
}

// oracleVariant is what Download serves for variant, by definition: the
// served public part decoded, the effective secret's difference image
// through the variant's operator, the public part added in its own sweep
// and the sum clamped in another, then encodeVariant.
func oracleVariant(t *testing.T, p *Proxy, id string, variant p3.PhotoVariant) []byte {
	t.Helper()
	publicBytes, err := p.photos.FetchPhoto(ctx, id, variant)
	if err != nil {
		t.Fatal(err)
	}
	pubIm, err := jpegx.Decode(bytes.NewReader(publicBytes))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.store.GetSecret(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	threshold, secretJPEG, err := core.OpenSecret(p.key(), blob)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := jpegx.Decode(bytes.NewReader(secretJPEG))
	if err != nil {
		t.Fatal(err)
	}
	op, err := p.buildOp(ctx, id, variant, &p.calib.cur.Load().Params, sec.Width, sec.Height, pubIm.Width, pubIm.Height)
	if err != nil {
		t.Fatal(err)
	}
	if !op.Linear() {
		t.Fatalf("operator %s is not linear", op)
	}
	rec := imaging.ApplyFreq(op, effectiveFreq(sec, threshold), nil)
	pub := pubIm.ToPlanar()
	for pi, plane := range rec.Planes {
		for i := range plane {
			plane[i] += pub.Planes[pi][i]
		}
	}
	out, err := encodeVariant(imaging.Clamp(rec))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDownloadMatchesOracleReconstruction: for each benchmark rendition,
// under a pipeline whose sharpen stops the operator's fold and one that
// folds whole, Download serves exactly the bytes of the oracle
// reconstruction (oracleVariant) — the epilogue and the encoder's kernels
// change no served byte.
func TestDownloadMatchesOracleReconstruction(t *testing.T) {
	for _, pipeline := range []psp.Pipeline{psp.FacebookLike(), psp.FlickrLike()} {
		tb := newTestbed(t, pipeline)
		jpegBytes, _ := photoJPEG(t, 33, 512, 384)
		id, err := tb.proxy.Upload(ctx, jpegBytes)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range benchVariants {
			vals, err := url.ParseQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			variant, err := p3.ParsePhotoVariant(vals)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tb.proxy.Download(ctx, id, vals)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			if want := oracleVariant(t, tb.proxy, id, variant); !bytes.Equal(got, want) {
				t.Errorf("sharpen %g, %q: Download served %d bytes that differ from the oracle's %d",
					pipeline.SharpenAmount, q, len(got), len(want))
			}
		}
	}
}

// TestCachedValuesAreExact: the secret and variant caches charge a value's
// len, so every value they hold must have no spare capacity — not the
// secret an upload stores, nor one fetched back from the blob store, nor
// any rendition Download encodes.
func TestCachedValuesAreExact(t *testing.T) {
	tb := newTestbed(t, psp.FacebookLike())
	p := tb.proxy
	jpegBytes, _ := photoJPEG(t, 34, 512, 384)
	id, err := p.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, b []byte, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s: not cached", what)
		}
		if cap(b) != len(b) {
			t.Errorf("%s: cached with len %d but cap %d", what, len(b), cap(b))
		}
	}
	b, ok := p.secrets.Get(id)
	check("uploaded secret", b, ok)
	p.secrets.Purge()
	epoch := p.calib.cur.Load().Epoch
	for _, q := range benchVariants {
		vals, err := url.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Download(ctx, id, vals); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		variant, err := p3.ParsePhotoVariant(vals)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := p.variants.Get(variantKeyFor(epoch, id, variant))
		check("variant "+q, b, ok)
	}
	b, ok = p.secrets.Get(id)
	check("fetched secret", b, ok)
}

// TestExactShedsSpareCapacity: exact clips a slice whose spare capacity is
// within an eighth of its length in place, and copies one with more.
func TestExactShedsSpareCapacity(t *testing.T) {
	for _, tc := range []struct {
		cap    int
		copied bool
	}{{80, false}, {90, false}, {91, true}, {160, true}} {
		b := make([]byte, 80, tc.cap)
		b[0] = 7
		out := exact(b)
		if len(out) != 80 || cap(out) != 80 || out[0] != 7 {
			t.Errorf("cap %d: exact gave len %d cap %d", tc.cap, len(out), cap(out))
		}
		if copied := &out[0] != &b[0]; copied != tc.copied {
			t.Errorf("cap %d: copied = %v, want %v", tc.cap, copied, tc.copied)
		}
	}
}
