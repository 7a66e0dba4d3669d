package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"p3/internal/dataset"
	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/psp"
	"p3/internal/work"
)

func TestSearchPipelineRecoversTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := naturalImage(t, rng, 96, 96, jpegx.Sub444)
	input := im.ToPlanar()
	// Hidden pipeline: Lanczos3 resize + mild sharpen, like a real PSP.
	hidden := imaging.Compose{
		imaging.Resize{W: 48, H: 48, Filter: imaging.Lanczos3},
		imaging.Sharpen{Sigma: 1, Amount: 0.5},
	}
	output := imaging.Clamp(hidden.Apply(input))
	_, res := SearchParams(input, output)
	if res.Op == nil {
		t.Fatal("no candidate matched")
	}
	// The matched pipeline must reproduce the output nearly exactly: the
	// truth is inside the candidate set.
	if res.PSNR < 45 {
		t.Errorf("best candidate PSNR %.1f dB, want >= 45 (found %s)", res.PSNR, res.Op)
	}
}

func TestSearchPipelineApproximatesUnknown(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := naturalImage(t, rng, 96, 96, jpegx.Sub444)
	input := im.ToPlanar()
	// A pipeline outside the candidate grid (different sharpen σ/amount and
	// a slight blur): the search should still find a reasonable surrogate,
	// mirroring the paper's 34–40 dB approximate reverse-engineering.
	hidden := imaging.Compose{
		imaging.GaussianBlur{Sigma: 0.7},
		imaging.Resize{W: 37, H: 37, Filter: imaging.CatmullRom},
		imaging.Sharpen{Sigma: 1.4, Amount: 0.35},
	}
	output := imaging.Clamp(hidden.Apply(input))
	_, res := SearchParams(input, output)
	if res.Op == nil {
		t.Fatal("no candidate matched")
	}
	if res.PSNR < 25 {
		t.Errorf("surrogate PSNR %.1f dB, want >= 25", res.PSNR)
	}
	if math.IsInf(res.PSNR, 1) {
		t.Error("exact match for out-of-grid pipeline is suspicious")
	}
}

func TestCandidatePipelinesAllProduceTargetDims(t *testing.T) {
	cands := CandidateParams()
	if len(cands) < 4*2*3 {
		t.Fatalf("only %d candidates", len(cands))
	}
	img := jpegx.NewPlanarImage(60, 40, 1)
	for i := range img.Planes[0] {
		img.Planes[0][i] = float64(i % 255)
	}
	for _, p := range cands {
		op := p.Instantiate(30, 20)
		out := op.Apply(img)
		if out.Width != 30 || out.Height != 20 {
			t.Errorf("%s produced %dx%d", op, out.Width, out.Height)
		}
	}
}

func TestSearchPipelineUsedForReconstruction(t *testing.T) {
	// End-to-end §4.1 flow: calibrate against the PSP's hidden pipeline,
	// then use the matched operator to reconstruct a *different* photo.
	rng := rand.New(rand.NewSource(3))
	hidden := imaging.Compose{
		imaging.Resize{W: 40, H: 40, Filter: imaging.Lanczos3},
		imaging.Sharpen{Sigma: 1, Amount: 0.5},
	}
	calibIm := naturalImage(t, rng, 80, 80, jpegx.Sub444)
	calib := calibIm.ToPlanar()
	_, res := SearchParams(calib, imaging.Clamp(hidden.Apply(calib)))
	if res.Op == nil {
		t.Fatal("calibration failed")
	}

	photo := naturalImage(t, rng, 80, 80, jpegx.Sub444)
	threshold := 15
	pub, sec, err := Split(photo, threshold)
	if err != nil {
		t.Fatal(err)
	}
	served := imaging.Clamp(hidden.Apply(pub.ToPlanar()))
	rec, err := ReconstructPixels(served, sec, threshold, res.Op)
	if err != nil {
		t.Fatal(err)
	}
	want := imaging.Clamp(hidden.Apply(photo.ToPlanar()))
	if got := psnr(want, rec); got < 30 {
		t.Errorf("reconstruction via searched pipeline: %.1f dB, want >= 30", got)
	}
}

// TestSearchParamsCtxMatchesSequential pins the parallel sweep to the
// sequential one: same winner, same score, at any pool size.
func TestSearchParamsCtxMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	im := naturalImage(t, rng, 96, 96, jpegx.Sub444)
	input := im.ToPlanar()
	hidden := imaging.Compose{
		imaging.Resize{W: 48, H: 48, Filter: imaging.Lanczos3},
		imaging.Sharpen{Sigma: 1, Amount: 0.5},
	}
	output := imaging.Clamp(hidden.Apply(input))
	seqP, seqRes := SearchParams(input, output)
	parP, parRes, err := SearchParamsCtx(context.Background(), input, output, work.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if parP.Filter.Name != seqP.Filter.Name || parP.PreBlur != seqP.PreBlur ||
		parP.SharpenAmount != seqP.SharpenAmount || parP.Gamma != seqP.Gamma {
		t.Errorf("parallel sweep picked %+v, sequential picked %+v", parP, seqP)
	}
	if parRes.MSE != seqRes.MSE || parRes.PSNR != seqRes.PSNR {
		t.Errorf("parallel score (%g, %g) != sequential (%g, %g)",
			parRes.MSE, parRes.PSNR, seqRes.MSE, seqRes.PSNR)
	}
}

// TestSearchParamsCtxCancelled: a cancelled context aborts the sweep with
// ctx.Err() instead of leaking a full grid search.
func TestSearchParamsCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := naturalImage(t, rng, 96, 96, jpegx.Sub444)
	input := im.ToPlanar()
	output := imaging.Clamp(imaging.Resize{W: 48, H: 48, Filter: imaging.Triangle}.Apply(input))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SearchParamsCtx(ctx, input, output, work.New(4)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

// TestVerifyProbe: the probe accepts the identified parameters and rejects
// a wrong candidate, the decision an incremental recalibration rests on.
func TestVerifyProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	im := naturalImage(t, rng, 96, 96, jpegx.Sub444)
	input := im.ToPlanar()
	truth := PipelineParams{Filter: imaging.Lanczos3, SharpenAmount: 0.5, Gamma: 1}
	output := imaging.Clamp(truth.Instantiate(48, 48).Apply(input))
	if res := truth.Verify(input, output); res.PSNR < 45 {
		t.Errorf("probe of the true parameters scored %.1f dB, want >= 45", res.PSNR)
	}
	wrong := PipelineParams{Filter: imaging.Box, PreBlur: 0.5, Gamma: 1.1}
	good := truth.Verify(input, output)
	if res := wrong.Verify(input, output); res.PSNR >= good.PSNR {
		t.Errorf("probe of wrong parameters (%.1f dB) not below true parameters (%.1f dB)",
			res.PSNR, good.PSNR)
	}
	// And the probe agrees with what a full sweep would land on.
	swept, sweptRes := SearchParams(input, output)
	if probe := swept.Verify(input, output); probe.MSE != sweptRes.MSE {
		t.Errorf("probe of swept winner scores MSE %g, sweep reported %g", probe.MSE, sweptRes.MSE)
	}
}

// calibrationPair is what the proxy's calibration pass sweeps against pipe:
// its probe photo (dataset.Natural(0xca11b, 512, 384) at q92 4:2:0) as
// decoded, and the "small" rendition the PSP serves back, rendered the way
// psp.Server does: the upload re-encoded at its stored size (≤ 720 px), then
// fit within 130×130 and re-encoded again.
func calibrationPair(tb testing.TB, pipe psp.Pipeline) (sent, served *jpegx.PlanarImage) {
	tb.Helper()
	coeffs, err := dataset.Natural(0xca11b, 512, 384).ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		tb.Fatal(err)
	}
	stored, err := pipe.Render(buf.Bytes(), nil, 720, 720)
	if err != nil {
		tb.Fatal(err)
	}
	small, err := pipe.Render(stored, nil, 130, 130)
	if err != nil {
		tb.Fatal(err)
	}
	sentIm, err := jpegx.DecodeBytes(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	servedIm, err := jpegx.DecodeBytes(small)
	if err != nil {
		tb.Fatal(err)
	}
	return sentIm.ToPlanar(), servedIm.ToPlanar()
}

// TestSweepWinnersPinned pins what the sweep publishes against the two
// simulated PSPs. The winners are not those PSPs' pipelines (Facebook-like
// is lanczos3 with sharpen 0.5, Flickr-like catmullrom with no blur): this
// is the wrong-operator finding EXPERIMENTS.md records, held here so that a
// change to the operators cannot move it unnoticed, and so that the
// calibration repair changes this table on purpose.
func TestSweepWinnersPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		pipe psp.Pipeline
		want PipelineParams
	}{
		{"facebook", psp.FacebookLike(), PipelineParams{Filter: imaging.CatmullRom, PreBlur: 0.5, SharpenAmount: 0, Gamma: 1}},
		{"flickr", psp.FlickrLike(), PipelineParams{Filter: imaging.Triangle, PreBlur: 0.5, SharpenAmount: 0, Gamma: 1}},
	} {
		sent, served := calibrationPair(t, tc.pipe)
		got, res := SearchParams(sent, served)
		if got.Filter.Name != tc.want.Filter.Name || got.PreBlur != tc.want.PreBlur ||
			got.SharpenAmount != tc.want.SharpenAmount || got.Gamma != tc.want.Gamma {
			t.Errorf("%s: sweep published %s pre_blur=%g sharpen=%g gamma=%g (%.2f dB), recorded %s pre_blur=%g sharpen=%g gamma=%g",
				tc.name, got.Filter.Name, got.PreBlur, got.SharpenAmount, got.Gamma, res.PSNR,
				tc.want.Filter.Name, tc.want.PreBlur, tc.want.SharpenAmount, tc.want.Gamma)
		}
	}
}

// BenchmarkSearchParams times the full 72-candidate sweep the proxy runs at
// calibration — the 512×384 probe against the Facebook-like PSP's 130×98
// rendition — sequentially, so one op is one core's work.
func BenchmarkSearchParams(b *testing.B) {
	sent, served := calibrationPair(b, psp.FacebookLike())
	b.ReportAllocs()
	for b.Loop() {
		SearchParams(sent, served)
	}
}
