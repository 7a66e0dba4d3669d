package similarity

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"p3/internal/dataset"
	"p3/internal/jpegx"
	"p3/internal/vision"
)

func encodeJPEG(t *testing.T, img *jpegx.PlanarImage, quality int) []byte {
	t.Helper()
	coeffs, err := img.ToCoeffs(quality, jpegx.Sub420)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// naiveHash is the oracle: the textbook quadruple-loop 2-D DCT-II over
// the 32×32 plane, keeping the low 8×8 block, thresholded against the
// median exactly as hashGray documents. hashGray's two-contraction form
// must produce the identical bit pattern.
func naiveHash(g *vision.Gray) Hash {
	c := func(u int) float64 {
		if u == 0 {
			return math.Sqrt(1.0 / thumbSize)
		}
		return math.Sqrt(2.0 / thumbSize)
	}
	var coef [hashEdge * hashEdge]float64
	for v := 0; v < hashEdge; v++ {
		for u := 0; u < hashEdge; u++ {
			var acc float64
			for y := 0; y < thumbSize; y++ {
				for x := 0; x < thumbSize; x++ {
					acc += g.Pix[y*thumbSize+x] *
						math.Cos((2*float64(x)+1)*float64(u)*math.Pi/(2*thumbSize)) *
						math.Cos((2*float64(y)+1)*float64(v)*math.Pi/(2*thumbSize))
				}
			}
			coef[v*hashEdge+u] = c(u) * c(v) * acc
		}
	}
	sorted := coef
	for i := 1; i < len(sorted); i++ { // insertion sort; oracle stays stdlib-free
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	median := (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	var h Hash
	for i, v := range coef {
		if v > median {
			h |= 1 << uint(i)
		}
	}
	return h
}

func TestHashGrayMatchesNaiveDCTOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		g := vision.NewGray(thumbSize, thumbSize)
		for i := range g.Pix {
			g.Pix[i] = rng.Float64() * 255
		}
		if got, want := hashGray(g), naiveHash(g); got != want {
			t.Fatalf("trial %d: hashGray %s != oracle %s (distance %d)",
				trial, got, want, Distance(got, want))
		}
	}
}

func TestHashStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		h := Hash(rng.Uint64())
		s := h.String()
		if len(s) != 16 {
			t.Fatalf("String() length %d, want 16", len(s))
		}
		back, err := ParseHash(s)
		if err != nil {
			t.Fatalf("ParseHash(%q): %v", s, err)
		}
		if back != h {
			t.Fatalf("round trip %016x -> %s -> %016x", uint64(h), s, uint64(back))
		}
	}
	if _, err := ParseHash("not-a-hash"); err == nil {
		t.Fatal("ParseHash accepted garbage")
	}
}

func TestDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		a, b, c := Hash(rng.Uint64()), Hash(rng.Uint64()), Hash(rng.Uint64())
		if Distance(a, a) != 0 {
			t.Fatal("d(a,a) != 0")
		}
		if Distance(a, b) != Distance(b, a) {
			t.Fatal("distance not symmetric")
		}
		if Distance(a, c) > Distance(a, b)+Distance(b, c) {
			t.Fatal("triangle inequality violated")
		}
	}
	if Distance(0, Hash(math.MaxUint64)) != 64 {
		t.Fatal("d(0, ~0) != 64")
	}
}

func TestPHashDeterministicAndDiscriminative(t *testing.T) {
	imgA := dataset.Natural(10, 320, 240)
	imgB := dataset.Natural(77, 320, 240)
	jpegA := encodeJPEG(t, imgA, 90)
	jpegB := encodeJPEG(t, imgB, 90)

	hA1, err := PHash(jpegA)
	if err != nil {
		t.Fatal(err)
	}
	hA2, err := PHash(jpegA)
	if err != nil {
		t.Fatal(err)
	}
	if hA1 != hA2 {
		t.Fatalf("PHash not deterministic: %s vs %s", hA1, hA2)
	}
	hB, err := PHash(jpegB)
	if err != nil {
		t.Fatal(err)
	}
	if d := Distance(hA1, hB); d < 10 {
		t.Fatalf("unrelated images only %d bits apart — hash not discriminative", d)
	}
}

// TestPHashStableAcrossReEncode pins the property the dedup/similarity
// pairing relies on: re-encoding the same picture (same or nearby
// quality) moves the hash by at most a few bits, so near-duplicate
// queries at d≈10 find re-encodes, while distinct photos stay far away.
func TestPHashStableAcrossReEncode(t *testing.T) {
	for _, seed := range []int64{5, 6, 7, 8} {
		img := dataset.Natural(seed, 320, 240)
		h90, err := PHash(encodeJPEG(t, img, 90))
		if err != nil {
			t.Fatal(err)
		}
		h84, err := PHash(encodeJPEG(t, img, 84))
		if err != nil {
			t.Fatal(err)
		}
		if d := Distance(h90, h84); d > 6 {
			t.Fatalf("seed %d: re-encode at q84 moved hash %d bits, want <= 6", seed, d)
		}
		// Same quality twice is bit-exact input, so hash must match exactly.
		hAgain, err := PHash(encodeJPEG(t, img, 90))
		if err != nil {
			t.Fatal(err)
		}
		if hAgain != h90 {
			t.Fatalf("seed %d: same-params re-encode changed hash", seed)
		}
	}
}

func TestPHashRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{nil, {}, []byte("not a jpeg"), {0xff, 0xd8, 0xff}} {
		if _, err := PHash(in); err == nil {
			t.Fatalf("PHash(%q) accepted undecodable input", in)
		}
	}
}

// oracleHash is PHash as it was before it reconstructed luma alone: every
// component IDCT'd and upsampled to full planes, then HashPlanar keeps the
// first. PHash must return its hash, and fail where it fails.
func oracleHash(jpegBytes []byte) (Hash, error) {
	img, err := jpegx.DecodeToPlanar(bytes.NewReader(jpegBytes))
	if err != nil {
		return 0, err
	}
	return HashPlanar(img), nil
}

// checkAgainstOracle fails t unless PHash and oracleHash agree on b: the
// same hash, or both an error.
func checkAgainstOracle(t *testing.T, name string, b []byte) {
	t.Helper()
	want, werr := oracleHash(b)
	got, err := PHash(b)
	switch {
	case (err != nil) != (werr != nil):
		t.Fatalf("%s: PHash error %v, oracle error %v", name, err, werr)
	case got != want:
		t.Fatalf("%s: PHash %s, oracle %s (distance %d)", name, got, want, Distance(got, want))
	}
}

// TestPHashMatchesFullDecodeOracle holds the luma-only hash to the full
// decode across sizes (odd ones and sub-block ones included), every
// component layout, baseline and progressive sources, and public parts at
// T = 1 and 15. The cases run from large to small and back through one
// recycled scratch, each followed by a truncated copy of itself, so reuse
// after a larger photo and after a failed or partial decode is covered.
func TestPHashMatchesFullDecodeOracle(t *testing.T) {
	sizes := [][2]int{{320, 240}, {333, 257}, {64, 48}, {17, 9}, {1, 1}, {129, 7}}
	layouts := []struct {
		name string
		gray bool
		sub  jpegx.Subsampling
	}{
		{"gray", true, jpegx.Sub444},
		{"420", false, jpegx.Sub420},
		{"422", false, jpegx.Sub422},
		{"440", false, jpegx.Sub440},
		{"444", false, jpegx.Sub444},
	}
	for i, size := range sizes {
		for _, l := range layouts {
			img := dataset.Natural(int64(i+1), size[0], size[1])
			if l.gray {
				img.Planes = img.Planes[:1]
			}
			coeffs, err := img.ToCoeffs(90, l.sub)
			if err != nil {
				t.Fatal(err)
			}
			var base, prog bytes.Buffer
			if err := jpegx.EncodeCoeffs(&base, coeffs, nil); err != nil {
				t.Fatal(err)
			}
			if err := jpegx.EncodeCoeffs(&prog, coeffs, &jpegx.EncodeOptions{Progressive: true}); err != nil {
				t.Fatal(err)
			}
			inputs := map[string][]byte{
				"baseline":    base.Bytes(),
				"progressive": prog.Bytes(),
				"public T=1":  publicPart(t, img, 90, l.sub, 1),
				"public T=15": publicPart(t, img, 90, l.sub, 15),
			}
			for kind, b := range inputs {
				name := fmt.Sprintf("%dx%d %s %s", size[0], size[1], l.name, kind)
				checkAgainstOracle(t, name, b)
				checkAgainstOracle(t, name+" truncated", b[:len(b)/2])
			}
		}
	}
}

// TestPHashWarmAllocation bounds what a warm hash of a 1024×768 public
// part allocates: the decode and the luma plane reuse pooled scratch, so
// only the 32×32 resize's small buffers are new (the full decode allocated
// ≈ 29 MB). Each call is measured on its own and the median taken, so a
// call that lands on a processor whose pool slot is still empty does not
// count.
func TestPHashWarmAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes a 1024x768 photo repeatedly")
	}
	pub := publicPart(t, dataset.Natural(1, 1024, 768), 92, jpegx.Sub420, 15)
	if _, err := PHash(pub); err != nil { // warm the pool
		t.Fatal(err)
	}
	const calls, limit = 5, 1 << 20
	var per [calls]uint64
	var ms runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := PHash(pub); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		per[i] = ms.TotalAlloc - before
	}
	sorted := per
	slices.Sort(sorted[:])
	if med := sorted[calls/2]; med >= limit {
		t.Fatalf("warm PHash of a 1024x768 public part allocates %d bytes (median of %v), want < %d", med, per, limit)
	}
}

// FuzzPHash pins three properties: PHash never panics, whatever the input;
// any input it does accept hashes identically on every call; and it agrees
// with the full-decode oracle, hash for hash and error for error. The
// oracle builds every plane at full size, so it is skipped for inputs whose
// frame header declares more than 2²⁰ pixels, which keeps a fuzz worker's
// memory small.
func FuzzPHash(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a jpeg at all"))
	f.Add([]byte{0xff, 0xd8, 0xff, 0xe0, 0x00, 0x10})
	// Real JPEG seeds so the corpus explores the decode path too: baseline
	// 4:2:0, progressive 4:2:2 and grayscale.
	img := dataset.Natural(9, 96, 64)
	for _, src := range []struct {
		planes int
		sub    jpegx.Subsampling
		opts   *jpegx.EncodeOptions
	}{
		{3, jpegx.Sub420, nil},
		{3, jpegx.Sub422, &jpegx.EncodeOptions{Progressive: true}},
		{1, jpegx.Sub444, nil},
	} {
		in := &jpegx.PlanarImage{Width: img.Width, Height: img.Height, Planes: img.Planes[:src.planes]}
		coeffs, err := in.ToCoeffs(85, src.sub)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := jpegx.EncodeCoeffs(&buf, coeffs, src.opts); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h1, err := PHash(data) // must return an error, never panic
		if w, h, _, _, cerr := jpegx.DecodeConfigBytes(data); cerr != nil || w*h <= 1<<20 {
			checkAgainstOracle(t, "fuzz input", data)
		}
		if err != nil {
			return
		}
		h2, err := PHash(data)
		if err != nil {
			t.Fatalf("second PHash of accepted input errored: %v", err)
		}
		if h1 != h2 {
			t.Fatalf("PHash unstable on identical input: %s vs %s", h1, h2)
		}
	})
}
