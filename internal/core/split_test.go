package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"p3/internal/jpegx"
)

// randomCoeffImage builds a valid coefficient image with sparse, natural-ish
// statistics (energy concentrated in low frequencies).
func randomCoeffImage(rng *rand.Rand, w, h int, sub jpegx.Subsampling) *jpegx.CoeffImage {
	luma, chroma := jpegx.StandardQuantTables(90)
	im := &jpegx.CoeffImage{Width: w, Height: h}
	im.Quant[0] = &luma
	im.Quant[1] = &chroma
	lh, lv := 1, 1
	if sub == jpegx.Sub420 {
		lh, lv = 2, 2
	}
	im.Components = []jpegx.Component{
		{ID: 1, H: lh, V: lv, TqIndex: 0},
		{ID: 2, H: 1, V: 1, TqIndex: 1},
		{ID: 3, H: 1, V: 1, TqIndex: 1},
	}
	mcusX := (w + 8*lh - 1) / (8 * lh)
	mcusY := (h + 8*lv - 1) / (8 * lv)
	for ci := range im.Components {
		c := &im.Components[ci]
		c.BlocksX = mcusX * c.H
		c.BlocksY = mcusY * c.V
		c.Blocks = make([]jpegx.Block, c.BlocksX*c.BlocksY)
		for bi := range c.Blocks {
			b := &c.Blocks[bi]
			b[0] = int32(rng.Intn(2033) - 1016)
			for zz := 1; zz < 64; zz++ {
				if rng.Float64() < 0.25 {
					limit := 600 / zz
					if limit < 3 {
						limit = 3
					}
					b[jpegx.Zigzag(zz)] = int32(rng.Intn(2*limit+1) - limit)
				}
			}
		}
	}
	return im
}

func TestSplitInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := randomCoeffImage(rng, 64, 48, jpegx.Sub420)
	for _, threshold := range []int{1, 5, 15, 20, 100} {
		pub, sec, err := Split(im, threshold)
		if err != nil {
			t.Fatal(err)
		}
		tt := int32(threshold)
		for ci := range im.Components {
			for bi := range im.Components[ci].Blocks {
				y := &im.Components[ci].Blocks[bi]
				p := &pub.Components[ci].Blocks[bi]
				s := &sec.Components[ci].Blocks[bi]
				if p[0] != 0 {
					t.Fatalf("T=%d: public DC %d != 0", threshold, p[0])
				}
				if s[0] != y[0] {
					t.Fatalf("T=%d: secret DC %d != original %d", threshold, s[0], y[0])
				}
				for k := 1; k < 64; k++ {
					// Public ACs are clipped into [-T, T].
					if p[k] > tt || p[k] < -tt {
						t.Fatalf("T=%d: |public AC| = %d > T", threshold, p[k])
					}
					// Below-threshold coefficients stay public, secret zero.
					if y[k] >= -tt && y[k] <= tt {
						if p[k] != y[k] || s[k] != 0 {
							t.Fatalf("T=%d: below-threshold coeff mishandled: y=%d p=%d s=%d", threshold, y[k], p[k], s[k])
						}
						continue
					}
					// Above-threshold: public is exactly +T (sign withheld).
					if p[k] != tt {
						t.Fatalf("T=%d: clipped public %d != T", threshold, p[k])
					}
					// Secret carries sign and excess magnitude.
					if y[k] > tt && s[k] != y[k]-tt {
						t.Fatalf("T=%d: secret %d, want %d", threshold, s[k], y[k]-tt)
					}
					if y[k] < -tt && s[k] != y[k]+tt {
						t.Fatalf("T=%d: secret %d, want %d", threshold, s[k], y[k]+tt)
					}
				}
			}
		}
	}
}

func TestSplitReconstructExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		im := randomCoeffImage(rng, 40, 40, jpegx.Sub444)
		threshold := 1 + rng.Intn(100)
		pub, sec, err := Split(im, threshold)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReconstructCoeffs(pub, sec, threshold)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range im.Components {
			for bi := range im.Components[ci].Blocks {
				if got.Components[ci].Blocks[bi] != im.Components[ci].Blocks[bi] {
					t.Fatalf("T=%d: block %d/%d not reconstructed exactly", threshold, ci, bi)
				}
			}
		}
	}
}

// TestSplitReconstructProperty: for any single coefficient value and
// threshold, split followed by Eq. (1) recombination is the identity.
func TestSplitReconstructProperty(t *testing.T) {
	f := func(vRaw int16, tRaw uint8) bool {
		v := int32(vRaw % 1024) // valid AC range
		threshold := int(tRaw)%MaxThreshold + 1
		tt := int32(threshold)
		var p, s int32
		switch {
		case v > tt:
			p, s = tt, v-tt
		case v < -tt:
			p, s = tt, v+tt
		default:
			p, s = v, 0
		}
		// Eq. (1) per-coefficient.
		var y int32
		switch {
		case s > 0:
			y = p + s
		case s < 0:
			y = p + s - 2*tt
		default:
			y = p
		}
		return y == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSplitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	im := randomCoeffImage(rng, 16, 16, jpegx.Sub444)
	if _, _, err := Split(im, 0); err == nil {
		t.Error("threshold 0 must be rejected")
	}
	if _, _, err := Split(im, MaxThreshold+1); err == nil {
		t.Error("threshold > max must be rejected")
	}
	if _, _, err := Split(nil, 10); err == nil {
		t.Error("nil image must be rejected")
	}
	other := randomCoeffImage(rng, 24, 16, jpegx.Sub444)
	if _, err := ReconstructCoeffs(im, other, 10); err == nil {
		t.Error("geometry mismatch must be rejected")
	}
}

func TestSplitPartsAreEncodable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	im := randomCoeffImage(rng, 48, 32, jpegx.Sub420)
	for _, threshold := range []int{1, 20, 100} {
		pub, sec, err := Split(im, threshold)
		if err != nil {
			t.Fatal(err)
		}
		for name, part := range map[string]*jpegx.CoeffImage{"public": pub, "secret": sec} {
			var buf sliceWriter
			if err := jpegx.EncodeCoeffs(&buf, part, &jpegx.EncodeOptions{OptimizeHuffman: true}); err != nil {
				t.Fatalf("T=%d: %s part not encodable: %v", threshold, name, err)
			}
			if len(buf) == 0 {
				t.Fatalf("T=%d: %s part empty", threshold, name)
			}
		}
	}
}

type sliceWriter []byte

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

func TestGuessThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := randomCoeffImage(rng, 96, 96, jpegx.Sub420)
	// The attack works when enough coefficients exceed T (low thresholds).
	for _, threshold := range []int{1, 5, 10, 20} {
		pub, _, err := Split(im, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if got := GuessThreshold(pub); got != threshold {
			t.Errorf("T=%d: attacker guessed %d", threshold, got)
		}
	}
	// An empty public part yields 0.
	empty := randomCoeffImage(rng, 16, 16, jpegx.Sub444)
	for ci := range empty.Components {
		for bi := range empty.Components[ci].Blocks {
			empty.Components[ci].Blocks[bi] = jpegx.Block{}
		}
	}
	if got := GuessThreshold(empty); got != 0 {
		t.Errorf("empty image guessed %d", got)
	}
}

// TestEffectiveSecretMatchesEquation: the effective secret is Eq. (1) with the
// secret and correction terms folded, so pub + e must equal the original
// coefficient by coefficient.
func TestEffectiveSecretMatchesEquation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	im := randomCoeffImage(rng, 32, 32, jpegx.Sub444)
	threshold := 10
	pub, sec, err := Split(im, threshold)
	if err != nil {
		t.Fatal(err)
	}
	eff := EffectiveSecret(sec, threshold)
	for ci := range im.Components {
		for bi := range im.Components[ci].Blocks {
			y := &im.Components[ci].Blocks[bi]
			p := &pub.Components[ci].Blocks[bi]
			e := &eff.Components[ci].Blocks[bi]
			for k := 0; k < 64; k++ {
				if p[k]+e[k] != y[k] {
					t.Fatalf("coeff %d: %d+%d != %d", k, p[k], e[k], y[k])
				}
			}
		}
	}
}
