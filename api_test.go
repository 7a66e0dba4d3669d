package p3

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"net/url"
	"path"
	"strconv"
	"strings"
	"testing"

	"p3/internal/core"
	"p3/internal/jpegx"
	"p3/internal/psp"
	"p3/internal/vision"
)

func TestStreamingRoundTrip(t *testing.T) {
	jpegBytes, coeffs := testJPEG(t, 11, 320, 240, jpegx.Sub420)
	codec := newTestCodec(t, WithThreshold(20))
	ctx := context.Background()
	split, err := codec.Split(ctx, bytes.NewReader(jpegBytes))
	if err != nil {
		t.Fatal(err)
	}
	if split.Threshold != 20 {
		t.Errorf("threshold %d, want 20", split.Threshold)
	}
	var joined bytes.Buffer
	if err := codec.Join(ctx, bytes.NewReader(split.PublicJPEG), bytes.NewReader(split.SecretBlob), &joined); err != nil {
		t.Fatal(err)
	}
	img, err := DecodeImage(bytes.NewReader(joined.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if img.Width() != coeffs.Width || img.Height() != coeffs.Height {
		t.Errorf("joined %dx%d, want %dx%d", img.Width(), img.Height(), coeffs.Width, coeffs.Height)
	}
	psnr, err := vision.PSNR(coeffs.ToPlanar(), img.pix)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 45 {
		t.Errorf("streaming round trip PSNR %.1f dB, want near-lossless", psnr)
	}
}

func TestContextCancellation(t *testing.T) {
	jpegBytes, _ := testJPEG(t, 12, 64, 64, jpegx.Sub420)
	codec := newTestCodec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := codec.Split(ctx, bytes.NewReader(jpegBytes)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled split returned %v, want context.Canceled", err)
	}
}

// TestJoinProcessedPublicOnly drives JoinProcessed end to end using nothing
// but exported p3 identifiers for every value handed to the API.
func TestJoinProcessedPublicOnly(t *testing.T) {
	jpegBytes, coeffs := testJPEG(t, 13, 200, 160, jpegx.Sub420)
	codec := newTestCodec(t, WithThreshold(10))
	split, err := codec.SplitBytes(jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	op := Resize(100, 80, FilterTriangle).Then(Blur(0.8))
	served := fabricateServed(t, split.PublicJPEG, op)
	rec, err := codec.JoinProcessedBytes(served, split.SecretBlob, op)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Width() != 100 || rec.Height() != 80 {
		t.Fatalf("reconstructed %dx%d, want 100x80", rec.Width(), rec.Height())
	}
	orig := &Image{pix: coeffs.ToPlanar()}
	want := op.Apply(orig)
	psnr, err := vision.PSNR(want.pix, rec.pix)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 30 {
		t.Errorf("processed reconstruction %.1f dB, want >= 30", psnr)
	}
}

// TestJoinProcessedAgainstPSP reconstructs from a variant rendered by the
// real (internal) PSP pipeline, describing what it did with the public
// Transform vocabulary.
func TestJoinProcessedAgainstPSP(t *testing.T) {
	jpegBytes, coeffs := testJPEG(t, 14, 400, 300, jpegx.Sub420)
	codec := newTestCodec(t)
	split, err := codec.SplitBytes(jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	// A Flickr-like PSP: Catmull-Rom fit-within resize, baseline re-encode.
	pipeline := psp.FlickrLike()
	served, err := pipeline.Render(split.PublicJPEG, nil, 130, 130)
	if err != nil {
		t.Fatal(err)
	}
	w, h := FitWithin(400, 300, 130, 130)
	op := Resize(w, h, FilterCatmullRom)
	rec, err := codec.JoinProcessedBytes(served, split.SecretBlob, op)
	if err != nil {
		t.Fatal(err)
	}
	want := op.Apply(&Image{pix: coeffs.ToPlanar()})
	psnr, err := vision.PSNR(want.pix, rec.pix)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 28 {
		t.Errorf("PSP-processed reconstruction %.1f dB, want >= 28", psnr)
	}
}

// TestJoinProcessedGammaTail covers the §3.3 invertible-remap path: a linear
// prefix followed by gamma.
func TestJoinProcessedGammaTail(t *testing.T) {
	jpegBytes, coeffs := testJPEG(t, 15, 160, 120, jpegx.Sub420)
	codec := newTestCodec(t, WithThreshold(10))
	split, err := codec.SplitBytes(jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	op := Resize(80, 60, FilterLanczos).Then(Gamma(1.2))
	if op.Linear() {
		t.Fatal("gamma transform should not report linear")
	}
	served := fabricateServed(t, split.PublicJPEG, op)
	rec, err := codec.JoinProcessedBytes(served, split.SecretBlob, op)
	if err != nil {
		t.Fatal(err)
	}
	want := op.Apply(&Image{pix: coeffs.ToPlanar()})
	psnr, err := vision.PSNR(want.pix, rec.pix)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 25 {
		t.Errorf("gamma-tail reconstruction %.1f dB, want >= 25", psnr)
	}
	// Gamma anywhere but last is not reconstructable.
	bad := Gamma(1.2).Then(Resize(80, 60, FilterLanczos))
	if _, err := codec.JoinProcessedBytes(served, split.SecretBlob, bad); err == nil {
		t.Error("mid-pipeline gamma accepted")
	}
}

func TestWrongKeyAndTamperedBlob(t *testing.T) {
	jpegBytes, _ := testJPEG(t, 16, 128, 96, jpegx.Sub420)
	codec := newTestCodec(t)
	split, err := codec.SplitBytes(jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	eve := newTestCodec(t)
	if _, err := eve.JoinBytes(split.PublicJPEG, split.SecretBlob); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong key: got %v, want ErrAuth", err)
	}
	if _, err := eve.JoinProcessedBytes(split.PublicJPEG, split.SecretBlob, Transform{}); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong key (processed): got %v, want ErrAuth", err)
	}
	tampered := append([]byte(nil), split.SecretBlob...)
	tampered[len(tampered)/2] ^= 0x40
	if _, err := codec.JoinBytes(split.PublicJPEG, tampered); !errors.Is(err, ErrAuth) {
		t.Errorf("tampered blob: got %v, want ErrAuth", err)
	}
}

func TestThresholdValidation(t *testing.T) {
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-5, 0, MaxThreshold + 1} {
		_, err := New(key, WithThreshold(bad))
		var te *ThresholdError
		if !errors.As(err, &te) {
			t.Errorf("WithThreshold(%d): got %v, want *ThresholdError", bad, err)
		} else if te.Threshold != bad {
			t.Errorf("WithThreshold(%d): error carries %d", bad, te.Threshold)
		}
	}
	if _, err := New(key, WithThreshold(1), WithThreshold(MaxThreshold)); err != nil {
		t.Errorf("valid thresholds rejected: %v", err)
	}
}

// TestConstantsMatchCore pins the public constants to the algorithm's.
func TestConstantsMatchCore(t *testing.T) {
	if DefaultThreshold != core.DefaultThreshold {
		t.Errorf("DefaultThreshold %d != core %d", DefaultThreshold, core.DefaultThreshold)
	}
	if MaxThreshold != core.MaxThreshold {
		t.Errorf("MaxThreshold %d != core %d", MaxThreshold, core.MaxThreshold)
	}
}

func TestPhotoVariantQueryRoundTrip(t *testing.T) {
	for _, v := range []PhotoVariant{
		{},
		{Size: "big"},
		{W: 120, H: 90},
		{W: 64},
		{H: 48},
		{Crop: &CropRect{X: 8, Y: 16, W: 100, H: 50}},
		{W: 64, H: 64, Crop: &CropRect{X: 1, Y: 2, W: 3, H: 4}},
	} {
		got, err := ParsePhotoVariant(v.Query())
		if err != nil {
			t.Fatalf("%+v: %v", v, err)
		}
		if got.Size != v.Size || got.W != v.W || got.H != v.H {
			t.Errorf("round trip %+v -> %+v", v, got)
		}
		if (got.Crop == nil) != (v.Crop == nil) || (v.Crop != nil && *got.Crop != *v.Crop) {
			t.Errorf("crop round trip %+v -> %+v", v.Crop, got.Crop)
		}
	}
	if _, err := ParsePhotoVariant(url.Values{"crop": {"1,2,3"}}); err == nil {
		t.Error("short crop accepted")
	}
	if _, err := ParsePhotoVariant(url.Values{"w": {"-3"}}); err == nil {
		t.Error("negative width accepted")
	}
	for _, crop := range []string{"4,4,0,0", "4,4,8,0", "4,4,0,8"} {
		if _, err := ParsePhotoVariant(url.Values{"crop": {crop}}); err == nil {
			t.Errorf("zero-area crop %q accepted", crop)
		}
	}
}

// TestJoinProcessedRejectsInapplicableTransform: a crop that misses the
// photo or a resize to nothing is a typed error from every processed-join
// entry point, not a panic inside the pixel pipeline.
func TestJoinProcessedRejectsInapplicableTransform(t *testing.T) {
	assertTransformErrors(t, []Transform{
		Crop(10000, 10000, 5, 5),
		Crop(8, 8, 0, 16),
		Resize(0, 0, FilterTriangle),
		Blur(1).Then(Resize(48, 32, FilterBox)).Then(Crop(48, 0, 4, 4)),
		Resize(48, -1, FilterBox).Then(Gamma(2.2)),
	})
}

// TestJoinProcessedRejectsBadFilterParameters: a blur or sharpen σ that is
// not finite or needs a kernel radius over 64 samples, a sharpen amount that
// is not finite, and a gamma that is not finite and positive are typed
// errors too — not NaN pixels, and not a kernel the size of σ.
func TestJoinProcessedRejectsBadFilterParameters(t *testing.T) {
	const overBound = 64.01 / 3 // ⌈3σ⌉ = 65
	assertTransformErrors(t, []Transform{
		Blur(math.NaN()),
		Blur(math.Inf(1)),
		Blur(overBound),
		Blur(1e7),
		Resize(48, 32, FilterBox).Then(Sharpen(math.NaN(), 0.5)),
		Sharpen(overBound, 0.5),
		Sharpen(1, math.Inf(1)),
		Resize(48, 32, FilterBox).Then(Gamma(math.NaN())),
		Gamma(0),
		Gamma(-2),
		Gamma(math.Inf(1)),
	})
}

// assertTransformErrors checks that every processed-join entry point refuses
// each transform on a 96×64 photo with a *TransformError naming that size.
func assertTransformErrors(t *testing.T, trs []Transform) {
	t.Helper()
	jpegBytes, _ := testJPEG(t, 17, 96, 64, jpegx.Sub420)
	codec := newTestCodec(t)
	split, err := codec.SplitBytes(jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		var te *TransformError
		_, err := codec.JoinProcessed(context.Background(), bytes.NewReader(split.PublicJPEG), bytes.NewReader(split.SecretBlob), tr)
		if !errors.As(err, &te) {
			t.Errorf("JoinProcessed(%s) returned %v, want a *TransformError", tr, err)
		} else if te.Width != 96 || te.Height != 64 {
			t.Errorf("JoinProcessed(%s): error reports a %dx%d photo, want 96x64", tr, te.Width, te.Height)
		}
		if _, err := codec.JoinProcessedBytes(split.PublicJPEG, split.SecretBlob, tr); !errors.As(err, &te) {
			t.Errorf("JoinProcessedBytes(%s) returned %v, want a *TransformError", tr, err)
		}
		if !tr.Linear() {
			continue
		}
		ok := Resize(48, 32, FilterTriangle)
		_, err = codec.JoinProcessedMulti(
			[][]byte{fabricateServed(t, split.PublicJPEG, ok), split.PublicJPEG}, split.SecretBlob, []Transform{ok, tr})
		if !errors.As(err, &te) {
			t.Errorf("JoinProcessedMulti(%s) returned %v, want a *TransformError", tr, err)
		}
	}
}

// TestNoInternalTypesInExportedAPI parses the package source and asserts
// that no exported declaration — function or method signature, struct
// field, type alias, interface method, or explicitly typed var/const —
// references a type from an internal package. This is what makes the facade
// usable from outside the module.
func TestNoInternalTypesInExportedAPI(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["p3"]
	if !ok {
		t.Fatalf("package p3 not found in %v", pkgs)
	}
	for fname, file := range pkg.Files {
		internalImports := map[string]bool{} // local name → is internal
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if strings.Contains(p, "internal/") {
				internalImports[name] = true
			}
		}
		check := func(what string, expr ast.Expr) {
			if expr == nil {
				return
			}
			ast.Inspect(expr, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && internalImports[id.Name] {
					t.Errorf("%s: %s references internal type %s.%s",
						fname, what, id.Name, sel.Sel.Name)
				}
				return true
			})
		}
		checkFields := func(what string, fl *ast.FieldList, exportedOnly bool) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				if exportedOnly && len(f.Names) > 0 {
					anyExported := false
					for _, n := range f.Names {
						if n.IsExported() {
							anyExported = true
						}
					}
					if !anyExported {
						continue
					}
				}
				check(what, f.Type)
			}
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				exported := d.Name.IsExported()
				if d.Recv != nil {
					// Methods count when the receiver's base type is exported.
					recv := d.Recv.List[0].Type
					for {
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
							continue
						}
						break
					}
					if id, ok := recv.(*ast.Ident); ok && !id.IsExported() {
						exported = false
					}
				}
				if !exported {
					continue
				}
				what := "func " + d.Name.Name
				checkFields(what, d.Type.Params, false)
				checkFields(what, d.Type.Results, false)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						what := "type " + s.Name.Name
						switch ty := s.Type.(type) {
						case *ast.StructType:
							checkFields(what, ty.Fields, true)
						case *ast.InterfaceType:
							checkFields(what, ty.Methods, false)
						default:
							check(what, s.Type)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								check("var/const "+n.Name, s.Type)
							}
						}
					}
				}
			}
		}
	}
}
