package core

import (
	"context"
	"math"

	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/work"
)

// Reverse-engineering of an unknown PSP resize pipeline (paper §4.1): the
// proxy uploads a calibration image, downloads the PSP's transformed output,
// and exhaustively searches a space of candidate pipelines — resize filter,
// pre-blur, post-sharpen, gamma — for the one whose output best matches.
// The winning pipeline is then used as the operator A in Eq. (2)
// reconstruction. The paper reports this recovers 34.4 dB against Facebook
// and 39.8 dB against Flickr; the search need only be repeated when a PSP
// changes its pipeline.

// PipelineParams parameterizes a candidate PSP pipeline independent of the
// resize target, so a pipeline calibrated at one size can be re-instantiated
// for any photo's variant dimensions.
type PipelineParams struct {
	Filter        imaging.Filter
	PreBlur       float64 // Gaussian σ before decimation (0 = none)
	SharpenAmount float64 // unsharp-mask amount after resize (0 = none)
	Gamma         float64 // pointwise gamma (1 = none)
}

// Instantiate builds the concrete operator resizing to w×h.
func (p PipelineParams) Instantiate(w, h int) imaging.Op {
	var ops imaging.Compose
	if p.PreBlur > 0 {
		ops = append(ops, imaging.GaussianBlur{Sigma: p.PreBlur})
	}
	ops = append(ops, imaging.Resize{W: w, H: h, Filter: p.Filter})
	if p.SharpenAmount > 0 {
		ops = append(ops, imaging.Sharpen{Sigma: 1, Amount: p.SharpenAmount})
	}
	if p.Gamma != 0 && p.Gamma != 1 {
		ops = append(ops, imaging.Gamma{G: p.Gamma})
	}
	return ops
}

// CandidateParams enumerates the search grid, mirroring the paper's "salient
// options based on commonly-used resizing techniques": every filter kernel
// crossed with light pre-blur, post-sharpen and gamma settings.
func CandidateParams() []PipelineParams {
	var out []PipelineParams
	blurs := []float64{0, 0.5}
	sharpens := []float64{0, 0.5, 1.0}
	gammas := []float64{1.0, 0.9, 1.1}
	for _, f := range imaging.Filters() {
		for _, b := range blurs {
			for _, s := range sharpens {
				for _, g := range gammas {
					out = append(out, PipelineParams{Filter: f, PreBlur: b, SharpenAmount: s, Gamma: g})
				}
			}
		}
	}
	return out
}

// CalibrationEpoch is one immutable, versioned identification of a PSP
// pipeline. A proxy publishes a new value atomically each time calibration
// lands new parameters; readers snapshot the pointer once and use Epoch and
// Params together, so a request can never pair one epoch's cache key with
// another epoch's operator.
type CalibrationEpoch struct {
	Epoch  uint64         // monotonically increasing; 1 = first calibration
	Params PipelineParams // identified pipeline, used as Eq. (2)'s operator A
	Result SearchResult   // match quality of the sweep (or probe) that set it
}

// SearchParams finds the grid parameters whose instantiated pipeline best
// reproduces output from input, returning them alongside the match quality.
// This is the calibration step a proxy runs once per PSP (§4.1): it uploads
// input, downloads the PSP's output, and sweeps the grid.
func SearchParams(input, output *jpegx.PlanarImage) (PipelineParams, SearchResult) {
	p, res, _ := SearchParamsCtx(context.Background(), input, output, nil)
	return p, res
}

// SearchParamsCtx is SearchParams with cancellation and parallelism: the
// candidate grid is swept on pool (nil runs sequentially), and ctx is
// checked before each candidate so an abandoned calibration stops burning
// cores mid-sweep instead of leaking a multi-second search. The winner is
// deterministic regardless of scheduling — every candidate's error is
// scored independently and the lowest-index minimum wins — so the parallel
// sweep returns exactly what the sequential one would.
func SearchParamsCtx(ctx context.Context, input, output *jpegx.PlanarImage, pool *work.Pool) (PipelineParams, SearchResult, error) {
	params := CandidateParams()
	mses := make([]float64, len(params))
	err := pool.Do(len(params), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		op := params[i].Instantiate(output.Width, output.Height)
		mses[i] = clampedMSE(op.Apply(input), output)
		return nil
	})
	if err != nil {
		return PipelineParams{}, SearchResult{}, err
	}
	bestI, bestMSE := 0, math.Inf(1)
	for i, mse := range mses {
		if mse < bestMSE {
			bestI, bestMSE = i, mse
		}
	}
	bestP := params[bestI]
	best := SearchResult{Op: bestP.Instantiate(output.Width, output.Height), MSE: bestMSE}
	finishPSNR(&best)
	return bestP, best, nil
}

// Verify measures how well p reproduces output from input — the
// single-candidate probe an incremental recalibration runs to decide
// whether the currently published parameters still match the PSP, before
// committing to the 72-candidate full sweep.
func (p PipelineParams) Verify(input, output *jpegx.PlanarImage) SearchResult {
	op := p.Instantiate(output.Width, output.Height)
	res := SearchResult{Op: op, MSE: clampedMSE(op.Apply(input), output)}
	finishPSNR(&res)
	return res
}

// finishPSNR derives the dB view of an MSE score in place.
func finishPSNR(r *SearchResult) {
	if r.MSE > 0 && !math.IsInf(r.MSE, 1) {
		r.PSNR = 10 * math.Log10(255*255/r.MSE)
	} else if r.MSE == 0 {
		r.PSNR = math.Inf(1)
	}
}

// SearchResult reports the best-matching candidate pipeline.
type SearchResult struct {
	Op   imaging.Op
	MSE  float64 // mean squared error against the PSP output
	PSNR float64 // equivalent PSNR in dB
}

// clampedMSE compares images after clamping to displayable range, because
// the PSP output went through an 8-bit JPEG.
func clampedMSE(a, b *jpegx.PlanarImage) float64 {
	var sum float64
	var n int
	for pi := range a.Planes {
		pa, pb := a.Planes[pi], b.Planes[pi]
		for i := range pa {
			va, vb := clampf(pa[i]), clampf(pb[i])
			d := va - vb
			sum += d * d
			n++
		}
	}
	return sum / float64(n)
}

func clampf(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}
