package jpegx

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p3/internal/work"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/encode.golden from the current code")

// goldenShapes are the component layouts of the encode golden: grayscale
// (always 1×1) and colour at each chroma subsampling.
var goldenShapes = []struct {
	name string
	gray bool
	sub  Subsampling
}{
	{"gray", true, Sub444},
	{"444", false, Sub444},
	{"422", false, Sub422},
	{"420", false, Sub420},
}

// encodeGolden renders one "case sha256" line per output of every JPEG
// writer: EncodeCoeffs over its option matrix, and the fused split
// capture's two parts at T = 1 and T = 15 with and without optimised
// tables.
func encodeGolden(t *testing.T) string {
	pool := work.New(4)
	var out strings.Builder
	line := func(name string, data []byte) {
		fmt.Fprintf(&out, "%s %x\n", name, sha256.Sum256(data))
	}
	for seed := int64(1); seed <= 40; seed++ {
		for _, sh := range goldenShapes {
			rng := rand.New(rand.NewSource(seed))
			w, h := 1+rng.Intn(160), 1+rng.Intn(128)
			im := randomCoeffImage(rng, w, h, sh.gray, sh.sub)
			ri := int(seed)%7 + 1
			prefix := fmt.Sprintf("seed=%02d %s %dx%d", seed, sh.name, w, h)
			var source []byte
			for _, m := range []struct {
				name string
				opts EncodeOptions
			}{
				{"annexk", EncodeOptions{}},
				{"annexk+rst", EncodeOptions{RestartInterval: ri}},
				{"opt", EncodeOptions{OptimizeHuffman: true}},
				{"opt+rst", EncodeOptions{OptimizeHuffman: true, RestartInterval: ri}},
				{"opt+workers", EncodeOptions{OptimizeHuffman: true, Workers: pool}},
				{"progressive", EncodeOptions{Progressive: true}},
			} {
				var buf bytes.Buffer
				if err := EncodeCoeffs(&buf, im, &m.opts); err != nil {
					t.Fatalf("%s %s: %v", prefix, m.name, err)
				}
				line(prefix+" "+m.name, buf.Bytes())
				if m.name == "annexk+rst" {
					source = bytes.Clone(buf.Bytes())
				}
			}
			for _, threshold := range []int{1, 15} {
				src, c, err := DecodeBytesSplit(source, threshold, nil, nil)
				if err != nil || c == nil {
					t.Fatalf("%s: fused split at T=%d: capture %v, err %v", prefix, threshold, c != nil, err)
				}
				for _, optimize := range []bool{false, true} {
					var pub, sec bytes.Buffer
					if err := c.EncodePublic(&pub, src, optimize); err != nil {
						t.Fatal(err)
					}
					if err := c.EncodeSecret(&sec, src, optimize); err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s fused T=%d opt=%v", prefix, threshold, optimize)
					line(name+" public", pub.Bytes())
					line(name+" secret", sec.Bytes())
				}
				c.Release()
			}
		}
	}
	return out.String()
}

// TestEncodeGolden pins the bytes of every JPEG writer in the package by
// SHA-256. The fused-split tests compare the fused writer with the reference
// one, so a fault both share passes them; this golden catches it. Run with
// -update to rewrite the golden after a deliberate output change.
func TestEncodeGolden(t *testing.T) {
	got := encodeGolden(t)
	path := filepath.Join("testdata", "encode.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, the code renders %d", len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
}
