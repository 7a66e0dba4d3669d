package similarity

import (
	"bytes"
	"fmt"
	"testing"

	"p3/internal/core"
	"p3/internal/dataset"
	"p3/internal/jpegx"
)

// publicPart returns the JPEG a PSP would hold for img: its q-quality
// encoding under sub, split at threshold T, the public part encoded with
// optimised tables.
func publicPart(tb testing.TB, img *jpegx.PlanarImage, quality int, sub jpegx.Subsampling, threshold int) []byte {
	tb.Helper()
	coeffs, err := img.ToCoeffs(quality, sub)
	if err != nil {
		tb.Fatal(err)
	}
	pub, _, err := core.Split(coeffs, threshold)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, pub, &jpegx.EncodeOptions{OptimizeHuffman: true}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkPHash hashes the public part of a q92 4:2:0 photo (T = 15), the
// similarity index's per-upload ingest, warm: the scratch is recycled from
// the previous iteration.
func BenchmarkPHash(b *testing.B) {
	for _, size := range [][2]int{{1024, 768}, {1600, 1200}} {
		pub := publicPart(b, dataset.Natural(1, size[0], size[1]), 92, jpegx.Sub420, 15)
		b.Run(fmt.Sprintf("%dx%d", size[0], size[1]), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(pub)))
			for i := 0; i < b.N; i++ {
				if _, err := PHash(pub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
