package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"time"

	"p3"
	"p3/bench/trace"
	"p3/internal/admission"
	"p3/internal/cache"
	"p3/internal/core"
	"p3/internal/dataset"
	"p3/internal/dedup"
	"p3/internal/erasure"
	"p3/internal/jpegx"
	"p3/internal/metrics"
	"p3/internal/psp"
	"p3/internal/similarity"
	"p3/internal/work"
)

// probe times one exported function of one layer from outside: the median
// of iters calls, each call running the function batch times. The numbers
// are the layer ladder the serving runs are explained against.
type probe struct {
	name, unit string
	iters      int
	batch      int
	call       func(i int) error
}

// unitNs is how many nanoseconds one unit of a probe's metric is.
var unitNs = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// probes measures every layer probe on the reference photo (an M-class
// source and its size=small rendition), using the run's codec and live
// stack, and adds the results to r.res. scale multiplies iteration counts.
func (r *runner) probes(scale int) error {
	res := r.res
	ctx := context.Background()
	pool := work.New(runtime.GOMAXPROCS(0))
	key := core.Key(r.codec.Key())
	threshold := r.codec.Threshold()

	// Reference inputs.
	var ref []byte
	for _, s := range r.sources {
		if s.class == classM {
			ref = s.jpeg
			break
		}
	}
	if ref == nil {
		var err error
		if ref, err = encodeJPEG(dataset.Natural(r.cfg.seed, classDims[classM][0], classDims[classM][1])); err != nil {
			return err
		}
	}
	split, err := r.codec.SplitBytes(ref)
	if err != nil {
		return err
	}
	pipeline := psp.FacebookLike()
	small, err := pipeline.Render(split.PublicJPEG, nil, 130, 130)
	if err != nil {
		return err
	}
	coeffs, err := jpegx.DecodeBytes(ref)
	if err != nil {
		return err
	}
	_, secretJPEG, err := core.OpenSecret(key, split.SecretBlob)
	if err != nil {
		return err
	}
	sec, err := jpegx.DecodeBytes(secretJPEG)
	if err != nil {
		return err
	}
	smallIm, err := jpegx.DecodeBytes(small)
	if err != nil {
		return err
	}
	smallPix, fullPix := smallIm.ToPlanar(), coeffs.ToPlanar()

	// The calibration inputs the proxy itself uses: a 512×384 photo and the
	// PSP's small rendition of it.
	calJPEG, err := encodeJPEG(dataset.Natural(0xca11b, 512, 384))
	if err != nil {
		return err
	}
	calServed, err := pipeline.Render(calJPEG, nil, 130, 130)
	if err != nil {
		return err
	}
	sentIm, err := jpegx.DecodeBytes(calJPEG)
	if err != nil {
		return err
	}
	servedIm, err := jpegx.DecodeBytes(calServed)
	if err != nil {
		return err
	}
	sentPix, servedPix := sentIm.ToPlanar(), servedIm.ToPlanar()
	params, _, err := core.SearchParamsCtx(ctx, sentPix, servedPix, pool)
	if err != nil {
		return err
	}
	calOp := params.Instantiate(smallPix.Width, smallPix.Height)

	frame, err := encodeJPEG(dataset.Natural(r.cfg.seed+1, clipW, clipH))
	if err != nil {
		return err
	}
	frames := make([][]byte, clipFrames)
	for i := range frames {
		frames[i] = frame
	}
	clip, err := p3.PackMJPEG(frames)
	if err != nil {
		return err
	}
	vsplit, err := r.codec.SplitVideoBytes(clip)
	if err != nil {
		return err
	}

	hits := cache.New(1<<30, 1<<20, func(b []byte) int { return len(b) })
	hits.Put("k", small)
	misses := cache.New(1, 1, func(b []byte) int { return len(b) }) // holds nothing: every lookup loads
	load := func(context.Context) ([]byte, error) { return small, nil }
	ctrl, err := admission.New(admission.Config{MaxInflight: 4}, metrics.NewRegistry(), "probe")
	if err != nil {
		return err
	}
	blob16k := make([]byte, 16<<10)
	rand.New(rand.NewSource(r.cfg.seed)).Read(blob16k)
	shares, err := erasure.Encode("probe", 1, blob16k, 4, 6)
	if err != nil {
		return err
	}
	ix := similarity.NewIndex(similarity.WithRegistry(metrics.NewRegistry()), similarity.WithWorkers(0))
	defer ix.Close()
	hashes := rand.New(rand.NewSource(r.cfg.seed))
	for i := 0; i < 1000; i++ {
		ix.Add(fmt.Sprint("p", i), similarity.Hash(hashes.Uint64()))
	}

	pspSrv := httptest.NewServer(r.rec)
	defer pspSrv.Close()
	blobSrv := httptest.NewServer(psp.NewBlobStore())
	defer blobSrv.Close()
	httpPhotos, httpSecrets := p3.NewHTTPPhotoService(pspSrv.URL), p3.NewHTTPSecretStore(blobSrv.URL)
	httpID, err := httpPhotos.UploadPhoto(ctx, split.PublicJPEG)
	if err != nil {
		return err
	}
	smallVariant := parseVariant(1)
	if _, err := httpPhotos.FetchPhoto(ctx, httpID, smallVariant); err != nil {
		return err
	}
	if err := httpSecrets.PutSecret(ctx, "probe", split.SecretBlob); err != nil {
		return err
	}

	e := func(_ any, err error) error { return err }
	probes := []probe{
		{"jpegx.decode_ms", "ms", 5, 1, func(int) error { return e(jpegx.DecodeBytes(ref)) }},
		{"jpegx.decode_split_ms", "ms", 5, 1, func(int) error {
			_, capture, err := jpegx.DecodeBytesSplit(ref, threshold, nil, nil)
			if capture != nil {
				capture.Release()
			}
			return err
		}},
		{"jpegx.encode_ms", "ms", 5, 1, func(int) error { return jpegx.EncodeCoeffs(io.Discard, coeffs, nil) }},
		{"core.split_ms", "ms", 5, 1, func(int) error { _, _, err := core.Split(coeffs, threshold); return err }},
		{"core.seal_us", "us", 20, 1, func(int) error { return e(core.SealSecret(key, threshold, secretJPEG)) }},
		{"core.open_us", "us", 20, 1, func(int) error { _, _, err := core.OpenSecret(key, split.SecretBlob); return err }},
		{"codec.split_ms", "ms", 5, 1, func(int) error { return e(r.codec.SplitBytes(ref)) }},
		{"core.derive_planes_ms", "ms", 3, 1, func(int) error { core.DeriveSecretPlanesPool(sec, threshold, pool); return nil }},
		{"core.reconstruct_ms", "ms", 3, 1, func(int) error { return e(core.ReconstructPixelsPool(smallPix, sec, threshold, calOp, pool)) }},
		{"imaging.pipeline_ms", "ms", 3, 1, func(int) error { calOp.Apply(fullPix); return nil }},
		{"codec.join_ms", "ms", 3, 1, func(int) error { return e(r.codec.JoinBytes(split.PublicJPEG, split.SecretBlob)) }},
		{"codec.join_processed_ms", "ms", 3, 1, func(int) error {
			return e(r.codec.JoinProcessedBytes(small, split.SecretBlob, p3.Resize(smallPix.Width, smallPix.Height, p3.FilterLanczos).Then(p3.Sharpen(1, 0.5))))
		}},
		{"core.search_params_ms", "ms", 1, 1, func(int) error { _, _, err := core.SearchParamsCtx(ctx, sentPix, servedPix, pool); return err }},
		{"proxy.recalibrate_probe_ms", "ms", 1, 1, func(int) error { return e(r.st.proxy.Recalibrate(ctx, false)) }},
		{"cache.hit_ns", "ns", 5, 20000, func(int) error { return e(hits.GetOrLoad(ctx, "k", load)) }},
		{"cache.miss_ns", "ns", 5, 2000, func(int) error { return e(misses.GetOrLoad(ctx, "k", load)) }},
		{"admission.admit_ns", "ns", 5, 20000, func(int) error {
			release, err := ctrl.Admit(ctx, admission.Cached, "probe")
			if err == nil {
				release()
			}
			return err
		}},
		{"erasure.encode_us", "us", 20, 1, func(int) error { return e(erasure.Encode("probe", 1, blob16k, 4, 6)) }},
		{"erasure.reconstruct_us", "us", 20, 1, func(int) error { return e(erasure.Reconstruct(shares[:4])) }},
		{"erasure.reconstruct_degraded_us", "us", 20, 1, func(int) error { return e(erasure.Reconstruct(shares[2:])) }},
		{"similarity.phash_ms", "ms", 5, 1, func(int) error { return e(similarity.PHash(split.PublicJPEG)) }},
		{"similarity.query_us", "us", 5, 200, func(i int) error { ix.Query(similarity.Hash(uint64(i)*0x9e3779b97f4a7c15), 10); return nil }},
		{"dedup.hash_us", "us", 20, 1, func(int) error { dedup.HashContent(split.PublicJPEG); return nil }},
		{"video.split_ms", "ms", 3, 1, func(int) error { return e(r.codec.SplitVideoBytes(clip)) }},
		{"video.join_frame_ms", "ms", 5, 1, func(int) error { return e(r.codec.JoinVideoFrame(vsplit.PublicMJPEG, vsplit.SecretBlob, clipFrames/2)) }},
		{"http.photo_fetch_us", "us", 20, 1, func(int) error { return e(httpPhotos.FetchPhoto(ctx, httpID, smallVariant)) }},
		{"http.secret_put_us", "us", 20, 1, func(int) error { return httpSecrets.PutSecret(ctx, "probe", split.SecretBlob) }},
		{"http.secret_get_us", "us", 20, 1, func(int) error { return e(httpSecrets.GetSecret(ctx, "probe")) }},
	}
	for _, p := range probes {
		var calls []float64
		for it := 0; it < p.iters*scale; it++ {
			t := time.Now()
			for b := 0; b < p.batch; b++ {
				if err := p.call(it*p.batch + b); err != nil {
					return fmt.Errorf("%s: %w", p.name, err)
				}
			}
			calls = append(calls, float64(time.Since(t))/float64(p.batch)/unitNs[p.unit])
		}
		res.set(p.name, median(calls), p.unit)
	}
	get := func(name string) float64 { return res.Metrics[name].Value }
	res.set("codec.split_mb_s", float64(len(ref))/(1<<20)/(get("codec.split_ms")/1e3), "MB/s")

	// The reference requests: one traced upload of the reference photo and
	// one traced cold size=small view of it, against the live stack. What
	// their self time holds beyond the matching probes is what no layer
	// benchmark accounts for.
	one := &runner{w: r.w, cfg: r.cfg, sources: []source{{class: classM, jpeg: ref}}, st: r.st}
	c := newClient(one, 0)
	selfOf := func(o op) float64 {
		tr := trace.NewRequest(0, time.Now())
		c.do(r.st.proxy, o, tr)
		return float64(trace.Self(tr.Spans())[0]) / 1e6
	}
	upSelf := selfOf(op{kind: opUpload})
	if c.failed > 0 {
		return fmt.Errorf("reference upload: %s", c.firstErr)
	}
	one.pre = c.own
	r.st.proxy.InvalidateCaches()
	downSelf := selfOf(op{kind: opView, photo: 0, variant: 1})
	if c.failed > 0 {
		return fmt.Errorf("reference view: %s", c.firstErr)
	}
	explainedDown := get("core.open_us")/1e3 + get("jpegx.decode_ms") + get("core.reconstruct_ms")
	res.set("proxy.upload_unexplained_ratio", (upSelf-get("codec.split_ms"))/upSelf, "ratio")
	res.set("proxy.download_cold_unexplained_ratio", (downSelf-explainedDown)/downSelf, "ratio")
	return nil
}
