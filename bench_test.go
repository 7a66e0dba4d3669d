package p3

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§5), plus ablations and micro-benchmarks of the substrates.
// Figure benchmarks run a reduced-size version of the corresponding
// experiment each iteration and report the headline quantity as a custom
// metric, so `go test -bench=. -benchmem` regenerates every result.
// `go run ./cmd/experiments -fig all` prints the full paper-style tables.

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"p3/internal/core"
	"p3/internal/dataset"
	"p3/internal/experiments"
	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/vision"
	"p3/internal/vision/eigen"
	"p3/internal/vision/haar"
	"p3/internal/vision/sift"
)

// parseCell reads a numeric cell from an experiments table.
func parseCell(b *testing.B, t *experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

func BenchmarkFig5_SizeVsThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig5SizeVsThreshold(experiments.SIPI, []int{1, 15, 100}, 6)
		if err != nil {
			b.Fatal(err)
		}
		// Row 1 = T=15 (the knee): report secret fraction and total overhead.
		b.ReportMetric(parseCell(b, t, 1, 2), "secretFrac@T15")
		b.ReportMetric(parseCell(b, t, 1, 3), "totalFrac@T15")
	}
}

func BenchmarkFig6_PSNRVsThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig6PSNRVsThreshold(experiments.SIPI, []int{1, 15, 100}, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseCell(b, t, 1, 1), "publicPSNRdB@T15")
		b.ReportMetric(parseCell(b, t, 1, 3), "secretPSNRdB@T15")
	}
}

func BenchmarkFig7_EncodeCanonical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs, err := experiments.Fig7Canonical()
		if err != nil {
			b.Fatal(err)
		}
		if len(pairs) != 5 {
			b.Fatalf("%d pairs", len(pairs))
		}
	}
}

func BenchmarkFig8a_EdgeDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8aEdgeDetection([]int{15, 100}, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseCell(b, t, 0, 1), "edgeMatchPct@T15")
		b.ReportMetric(parseCell(b, t, 1, 1), "edgeMatchPct@T100")
	}
}

func BenchmarkFig8b_FaceDetection(b *testing.B) {
	if _, err := haar.Default(); err != nil { // train outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8bFaceDetection([]int{15}, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseCell(b, t, 0, 1), "facesPublic@T15")
		b.ReportMetric(parseCell(b, t, 0, 2), "facesOriginal")
	}
}

func BenchmarkFig8c_SIFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8cSIFT([]int{15, 100}, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseCell(b, t, 0, 1), "siftDetected@T15")
		b.ReportMetric(parseCell(b, t, 1, 2), "siftMatched@T100")
	}
}

func BenchmarkFig8d_FaceRecognition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8dFaceRecognition([]int{20}, 10, 5)
		if err != nil {
			b.Fatal(err)
		}
		// Row 0 = Normal-Normal baseline, row 2 = T20-Normal-Public.
		b.ReportMetric(parseCell(b, t, 0, 1), "rank1Baseline")
		b.ReportMetric(parseCell(b, t, 2, 1), "rank1NormalPublic@T20")
	}
}

func BenchmarkFig10_Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig10Bandwidth([]int{15}, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseCell(b, t, 0, 2), "overheadKB@T15_720")
		b.ReportMetric(parseCell(b, t, 0, 4), "overheadKB@T15_75")
	}
}

func BenchmarkRecon_KnownTransform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.ReconstructionAccuracy(4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseCell(b, t, 0, 1), "knownPSNRdB")
	}
}

func BenchmarkRecon_UnknownPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.ReconstructionAccuracy(4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseCell(b, t, 1, 1), "facebookPSNRdB")
		b.ReportMetric(parseCell(b, t, 2, 1), "flickrPSNRdB")
	}
}

// §5.3 processing-cost micro-benchmarks on a 720×720 photo, driven through
// the public Codec facade.

func cost720(b *testing.B) ([]byte, *Codec) {
	b.Helper()
	img := dataset.Natural(0x0c057, 720, 720)
	im, err := img.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, im, nil); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), newTestCodec(b)
}

func BenchmarkCost_Split(b *testing.B) {
	jpegBytes, codec := cost720(b)
	b.SetBytes(int64(len(jpegBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.SplitBytes(jpegBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCost_SealSecret(b *testing.B) {
	jpegBytes, codec := cost720(b)
	key := core.Key(codec.Key())
	out, err := codec.SplitBytes(jpegBytes)
	if err != nil {
		b.Fatal(err)
	}
	_, secJPEG, err := core.OpenSecret(key, out.SecretBlob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(secJPEG)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SealSecret(key, out.Threshold, secJPEG); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCost_OpenSecret(b *testing.B) {
	jpegBytes, codec := cost720(b)
	out, err := codec.SplitBytes(jpegBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(out.SecretBlob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.OpenSecret(core.Key(codec.Key()), out.SecretBlob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCost_Reconstruct(b *testing.B) {
	jpegBytes, codec := cost720(b)
	out, err := codec.SplitBytes(jpegBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.JoinBytes(out.PublicJPEG, out.SecretBlob); err != nil {
			b.Fatal(err)
		}
	}
}

// Facade allocation benchmark: the reused Codec recycles its encode scratch
// via sync.Pool. Run with `go test -bench=BenchmarkFacade_Split -benchmem`.

func BenchmarkFacade_SplitCodecReuse(b *testing.B) {
	jpegBytes, codec := cost720(b)
	b.SetBytes(int64(len(jpegBytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.SplitBytes(jpegBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel pipeline benchmarks: the same hot path at parallelism 1 vs all
// cores. Outputs are byte-identical (TestCodecParallelMatchesSequential);
// only the wall clock differs. Compare with
// `go test -bench=BenchmarkFacade_Split -benchmem`.

func benchParallelCodec(b *testing.B, n int) *Codec {
	b.Helper()
	key, err := NewKey()
	if err != nil {
		b.Fatal(err)
	}
	codec, err := New(key, WithParallelism(n))
	if err != nil {
		b.Fatal(err)
	}
	return codec
}

func benchSplit(b *testing.B, codec *Codec) {
	b.Helper()
	jpegBytes, _ := cost720(b)
	b.SetBytes(int64(len(jpegBytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.SplitBytes(jpegBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacade_SplitSequential(b *testing.B) {
	benchSplit(b, benchParallelCodec(b, 1))
}

func BenchmarkFacade_SplitParallel(b *testing.B) {
	benchSplit(b, benchParallelCodec(b, runtime.GOMAXPROCS(0)))
}

func benchJoin(b *testing.B, codec *Codec) {
	b.Helper()
	jpegBytes, _ := cost720(b)
	out, err := codec.SplitBytes(jpegBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(jpegBytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.JoinBytes(out.PublicJPEG, out.SecretBlob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacade_JoinSequential(b *testing.B) {
	benchJoin(b, benchParallelCodec(b, 1))
}

func BenchmarkFacade_JoinParallel(b *testing.B) {
	benchJoin(b, benchParallelCodec(b, runtime.GOMAXPROCS(0)))
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblation_SignCorrection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationSignCorrection(0, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseCell(b, t, 0, 1), "clipBytes")
		b.ReportMetric(parseCell(b, t, 1, 1), "zeroBytes")
	}
}

func BenchmarkAblation_DCPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationDCPlacement(0, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseCell(b, t, 0, 1), "psnrDCSecret")
		b.ReportMetric(parseCell(b, t, 1, 1), "psnrDCPublic")
	}
}

func BenchmarkAblation_ReconDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationReconDomain(0, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_SecretEntropy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationSecretEntropy(0, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseCell(b, t, 1, 3), "secretSavingPct")
	}
}

// Substrate micro-benchmarks.

func BenchmarkJPEG_DecodeCoeffs(b *testing.B) {
	img := dataset.Natural(3, 512, 384)
	im, err := img.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, im, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jpegx.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJPEG_EncodeCoeffs(b *testing.B) {
	img := dataset.Natural(3, 512, 384)
	im, err := img.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := jpegx.EncodeCoeffs(&buf, im, nil); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkJPEG_EncodeProgressive(b *testing.B) {
	img := dataset.Natural(3, 512, 384)
	im, err := img.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := jpegx.EncodeCoeffs(&buf, im, &jpegx.EncodeOptions{Progressive: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCT_Forward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var src, dst [64]float64
	for i := range src {
		src[i] = rng.Float64()*255 - 128
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jpegx.FDCT8x8(&src, &dst)
	}
}

func BenchmarkImaging_ResizeLanczos(b *testing.B) {
	img := dataset.Natural(5, 720, 540)
	op := imaging.Resize{W: 130, H: 98, Filter: imaging.Lanczos3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Apply(img)
	}
}

func BenchmarkVision_Canny(b *testing.B) {
	g := vision.Luma(dataset.Natural(6, 256, 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vision.Canny{}.Detect(g)
	}
}

func BenchmarkVision_SIFTDetect(b *testing.B) {
	g := vision.Luma(dataset.Natural(7, 128, 128))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sift.Detect(g, nil)
	}
}

func BenchmarkVision_HaarDetect(b *testing.B) {
	c, err := haar.Default()
	if err != nil {
		b.Fatal(err)
	}
	img, _ := dataset.Scene(1, 160, 160, 1)
	g := vision.Luma(img)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Detect(g, nil)
	}
}

func BenchmarkVision_EigenTrain(b *testing.B) {
	fc := dataset.FERETCorpus(10, 2, 32, 40, 1)
	faces := make([]*vision.Gray, len(fc))
	for i := range fc {
		faces[i] = vision.Luma(fc[i].Img)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eigen.Train(faces, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCore_SplitCoeffs(b *testing.B) {
	img := dataset.Natural(8, 512, 384)
	im, err := img.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Split(im, core.DefaultThreshold); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCore_PipelineSearch(b *testing.B) {
	input := dataset.Natural(9, 128, 128)
	hidden := imaging.Compose{
		imaging.Resize{W: 64, H: 64, Filter: imaging.Lanczos3},
		imaging.Sharpen{Sigma: 1, Amount: 0.5},
	}
	output := imaging.Clamp(hidden.Apply(input))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SearchParams(input, output)
	}
}
