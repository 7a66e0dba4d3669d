package jpegx_test

import (
	"fmt"
	"testing"

	"p3/internal/dataset"
	"p3/internal/jpegx"
)

var coeffsSink *jpegx.CoeffImage

// BenchmarkToCoeffs times the lossy half of a served variant's encode —
// chroma box, block gather, FDCT and quantiser — as a cold view runs it:
// q95 4:2:0 of a natural image at the thumbnail, feed and full sizes.
func BenchmarkToCoeffs(b *testing.B) {
	for _, sz := range [][2]int{{130, 98}, {720, 540}, {1600, 1200}} {
		img := dataset.Natural(1, sz[0], sz[1])
		b.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				im, err := img.ToCoeffs(95, jpegx.Sub420)
				if err != nil {
					b.Fatal(err)
				}
				coeffsSink = im
			}
		})
	}
}
