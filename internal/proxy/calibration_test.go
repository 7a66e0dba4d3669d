package proxy

// Calibration-manager tests: incremental probe vs full sweep, in-flight
// rejection with Retry-After, cancellation, calibration-image cleanup, and
// the stale-while-revalidate hammer (run under -race in CI): downloads
// racing a recalibration serve old-epoch bytes byte-identical to the
// pre-calibration output and never observe a half-flipped epoch.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"p3"
	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/metrics"
	"p3/internal/psp"
)

// gatedPhotos wraps countingPhotos so a test can stall a calibration pass
// inside the PSP: once armed, fetches of any photo uploaded after arming
// block until release (or their ctx dies). Traffic for earlier photos — the
// downloads hammering the proxy meanwhile — passes straight through.
type gatedPhotos struct {
	*countingPhotos
	mu      sync.Mutex
	armed   bool
	gated   map[string]bool
	entered chan string   // receives the ID of each fetch that blocks
	release chan struct{} // closing it unblocks every gated fetch
}

func newGatedPhotos(pipeline psp.Pipeline) *gatedPhotos {
	return &gatedPhotos{
		countingPhotos: &countingPhotos{s: psp.NewServer(pipeline)},
		gated:          make(map[string]bool),
		entered:        make(chan string, 16),
		release:        make(chan struct{}),
	}
}

func (g *gatedPhotos) arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed = true
}

func (g *gatedPhotos) UploadPhoto(ctx context.Context, jpegBytes []byte) (string, error) {
	id, err := g.countingPhotos.UploadPhoto(ctx, jpegBytes)
	g.mu.Lock()
	if err == nil && g.armed {
		g.gated[id] = true
	}
	g.mu.Unlock()
	return id, err
}

func (g *gatedPhotos) FetchPhoto(ctx context.Context, id string, v p3.PhotoVariant) ([]byte, error) {
	g.mu.Lock()
	blocked := g.gated[id]
	g.mu.Unlock()
	if blocked {
		g.entered <- id
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.countingPhotos.FetchPhoto(ctx, id, v)
}

// gatedBed builds a calibrated proxy over a gateable PSP with a private
// metrics registry, so counter assertions see only this bed.
func gatedBed(t *testing.T, opts ...ProxyOption) (*gatedPhotos, *Proxy) {
	t.Helper()
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	photos := newGatedPhotos(psp.FlickrLike())
	opts = append([]ProxyOption{WithMetricsRegistry(metrics.NewRegistry())}, opts...)
	px := New(codec, photos, &countingStore{inner: p3.NewMemorySecretStore()}, opts...)
	if _, err := px.Calibrate(ctx); err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	return photos, px
}

// TestIncrementalProbe: while the PSP is stable, recalibration is a probe
// that confirms the epoch; when the PSP changes its pipeline, the probe
// fails the floor and the full sweep identifies the new one.
func TestIncrementalProbe(t *testing.T) {
	photos, px := gatedBed(t)
	if got := px.CalibrationEpoch(); got != 1 {
		t.Fatalf("epoch after first calibration = %d, want 1", got)
	}
	out, err := px.Recalibrate(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.FullSweep || out.Flipped || out.Epoch != 1 {
		t.Errorf("stable-PSP recalibration %+v, want probe-confirmed epoch 1", out)
	}
	st := px.Stats().Calibration
	if st.Probes != 1 || st.ProbeHits != 1 || st.Sweeps != 1 {
		t.Errorf("stats %+v, want 1 probe, 1 probe hit, 1 sweep", st)
	}

	// The PSP swaps in a very different pipeline behind our back.
	photos.s.Pipeline = psp.Pipeline{
		Filter:      imaging.Box,
		PreBlur:     0.5,
		Gamma:       1.1,
		Quality:     85,
		Subsampling: jpegx.Sub420,
	}
	out, err = px.Recalibrate(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if !out.FullSweep || !out.Flipped || out.Epoch != 2 {
		t.Errorf("post-change recalibration %+v, want sweep + flip to epoch 2", out)
	}
	if out.Result.PSNR < 30 {
		t.Errorf("re-identified pipeline scores %.1f dB, want >= 30", out.Result.PSNR)
	}
	st = px.Stats().Calibration
	if st.Probes != 2 || st.ProbeHits != 1 || st.Sweeps != 2 {
		t.Errorf("stats %+v, want 2 probes, 1 probe hit, 2 sweeps", st)
	}
}

// TestCalibrationImageCleanedUp: the probe photo a pass uploads to the PSP
// is deleted afterwards — it is proxy scaffolding, not user data — and a
// PSP without delete support is tolerated.
func TestCalibrationImageCleanedUp(t *testing.T) {
	photos, px := gatedBed(t)
	uploadsBefore := photos.uploads.Load()
	// Track the pass's upload by diffing the PSP: re-run a pass and verify
	// its image is gone. countingPhotos counts, the psp.Server holds state;
	// easiest check is that fetching any ID uploaded during the pass fails.
	var calibID string
	photos.mu.Lock()
	photos.armed = true // record IDs uploaded from here on in g.gated
	photos.mu.Unlock()
	// Don't block the fetch: release the gate up front.
	close(photos.release)
	done := make(chan error, 1)
	go func() {
		_, err := px.Recalibrate(ctx, false)
		done <- err
	}()
	calibID = <-photos.entered
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := photos.uploads.Load() - uploadsBefore; got != 1 {
		t.Fatalf("calibration pass made %d uploads, want 1", got)
	}
	if _, err := photos.countingPhotos.FetchPhoto(ctx, calibID, p3.PhotoVariant{Size: "small"}); !p3.IsNotFound(err) {
		t.Errorf("calibration image %q still on the PSP after the pass (err = %v)", calibID, err)
	}

	// A PSP without PhotoDeleter: the pass must still succeed.
	key, _ := p3.NewKey()
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	bare := struct{ p3.PhotoService }{&countingPhotos{s: psp.NewServer(psp.FlickrLike())}}
	px2 := New(codec, bare, p3.NewMemorySecretStore(), WithMetricsRegistry(metrics.NewRegistry()))
	if _, err := px2.Calibrate(ctx); err != nil {
		t.Fatalf("calibrate against delete-less PSP: %v", err)
	}
}

// TestCalibrateRejectedWhileInFlight: a second calibration attempt while
// one is running fails fast with *CalibrationInFlightError, and over HTTP
// that is a 503 with a Retry-After header.
func TestCalibrateRejectedWhileInFlight(t *testing.T) {
	photos, px := gatedBed(t)
	srv := httptest.NewServer(px)
	defer srv.Close()

	photos.arm()
	first := make(chan error, 1)
	go func() {
		_, err := px.Recalibrate(ctx, true)
		first <- err
	}()
	<-photos.entered // the pass is now blocked inside the PSP
	if !px.CalibrationInFlight() {
		t.Error("CalibrationInFlight() = false while a pass is blocked")
	}

	_, err := px.Recalibrate(ctx, false)
	var inFlight *CalibrationInFlightError
	if !errors.As(err, &inFlight) {
		t.Fatalf("concurrent Recalibrate returned %v, want *CalibrationInFlightError", err)
	}
	if inFlight.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", inFlight.RetryAfter)
	}

	resp, err := http.Post(srv.URL+"/calibrate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST /calibrate during a pass = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response carries no Retry-After header")
	}
	if got := px.Stats().Calibration.Rejected; got != 2 {
		t.Errorf("rejected counter = %d, want 2", got)
	}

	close(photos.release)
	if err := <-first; err != nil {
		t.Fatalf("gated pass failed after release: %v", err)
	}
	// The slot is free again: POST /calibrate now runs a pass (a probe —
	// the PSP didn't change) and succeeds.
	resp2, err := http.Post(srv.URL+"/calibrate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("POST /calibrate after release = %d, want 200", resp2.StatusCode)
	}
}

// TestCalibrateCancellation: cancelling the calibrate ctx aborts a blocked
// pass promptly and frees the slot for the next one.
func TestCalibrateCancellation(t *testing.T) {
	photos, px := gatedBed(t)
	photos.arm()
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := px.Recalibrate(cctx, true)
		done <- err
	}()
	<-photos.entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled pass returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled calibration did not return")
	}
	deadline := time.Now().Add(5 * time.Second)
	for px.CalibrationInFlight() {
		if time.Now().After(deadline) {
			t.Fatal("busy slot not released after cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	// Next pass succeeds once the gate is open.
	photos.mu.Lock()
	photos.armed = false
	clear(photos.gated)
	photos.mu.Unlock()
	if _, err := px.Recalibrate(ctx, false); err != nil {
		t.Fatalf("recalibrate after cancellation: %v", err)
	}
}

// TestStaleServingDuringRecalibration is the -race hammer pinning
// stale-while-revalidate: downloads racing an in-flight recalibration are
// error-free and byte-identical to the pre-calibration output — no
// half-flipped epoch, no 503s, no stampede onto a purged cache — and once
// the flip lands, the pre-warmed entries serve the same bytes with a warm
// hit recorded.
func TestStaleServingDuringRecalibration(t *testing.T) {
	photos, px := gatedBed(t)
	const photoCount = 3
	ids := make([]string, photoCount)
	refs := make(map[string][]byte)
	sizes := []string{"small", "thumb"}
	for i := range ids {
		jpegBytes, _ := photoJPEG(t, int64(100+i), 320, 240)
		id, err := px.Upload(ctx, jpegBytes)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		for _, size := range sizes {
			ref, err := px.Download(ctx, id, url.Values{"size": {size}})
			if err != nil {
				t.Fatal(err)
			}
			refs[id+"/"+size] = ref
		}
	}
	epochBefore := px.CalibrationEpoch()

	photos.arm()
	recalDone := make(chan struct{})
	var recalOut CalibrationOutcome
	var recalErr error
	go func() {
		defer close(recalDone)
		recalOut, recalErr = px.Recalibrate(ctx, true)
	}()
	<-photos.entered // the pass is pinned inside the PSP

	hammer := func(phase string) {
		t.Helper()
		const workers, rounds = 8, 40
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					id := ids[(w+r)%len(ids)]
					size := sizes[r%len(sizes)]
					got, err := px.Download(ctx, id, url.Values{"size": {size}})
					if err != nil {
						errs[w] = fmt.Errorf("%s round %d: %w", phase, r, err)
						return
					}
					if !bytes.Equal(got, refs[id+"/"+size]) {
						errs[w] = fmt.Errorf("%s round %d: bytes differ from pre-calibration reference", phase, r)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: the pass is blocked inside the PSP; every download must be
	// served from the previous epoch, byte-identical.
	hammer("blocked")
	if got := px.CalibrationEpoch(); got != epochBefore {
		t.Fatalf("epoch moved %d → %d while the pass was still blocked", epochBefore, got)
	}
	if got := px.Stats().Calibration.StaleServes; got == 0 {
		t.Error("no stale serves recorded during an in-flight pass")
	}

	// Phase 2: release the gate — the sweep, flip, purge and pre-warm race
	// the same download hammer. Bytes must stay identical throughout: the
	// PSP didn't change, so old-epoch and new-epoch reconstructions agree,
	// and a half-flipped epoch (old key, new params or vice versa) is the
	// only way this could fail.
	close(photos.release)
	hammerDone := make(chan struct{})
	go func() {
		defer close(hammerDone)
		for {
			select {
			case <-recalDone:
				return
			default:
				hammer("flipping")
			}
		}
	}()
	<-recalDone
	<-hammerDone
	if recalErr != nil {
		t.Fatalf("recalibration failed: %v", recalErr)
	}
	if !recalOut.Flipped || recalOut.Epoch != epochBefore+1 {
		t.Fatalf("recalibration outcome %+v, want flip to epoch %d", recalOut, epochBefore+1)
	}
	if recalOut.Warmed == 0 {
		t.Error("flip pre-warmed no variants despite a hot working set")
	}

	// Phase 3: post-flip serving is byte-identical and lands warm hits.
	hammer("post-flip")
	st := px.Stats().Calibration
	if st.WarmHits == 0 {
		t.Error("warm-hit counter still 0 after post-flip hammer")
	}
	if st.Epoch != epochBefore+1 {
		t.Errorf("stats epoch = %d, want %d", st.Epoch, epochBefore+1)
	}
}

// TestStatsPublishIdentifiedPipeline: what calibration identified is
// readable from outside — /stats carries the published epoch's filter,
// pre-blur, sharpen amount, gamma and match PSNR, /metrics the match PSNR
// gauge — and every epoch flip, foreground or background, logs old → new.
func TestStatsPublishIdentifiedPipeline(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	photos, px := gatedBed(t, WithMetricsName("calib-stats"))

	getStats := func() CalibrationStats {
		t.Helper()
		rec := httptest.NewRecorder()
		px.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var body struct {
			Calibration map[string]any `json:"calibration"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("/stats is not JSON: %v\n%s", err, rec.Body.Bytes())
		}
		for _, field := range []string{"filter", "pre_blur", "sharpen_amount", "gamma", "match_psnr_db"} {
			if _, ok := body.Calibration[field]; !ok {
				t.Errorf("/stats calibration block has no %q: %v", field, body.Calibration)
			}
		}
		return px.Stats().Calibration
	}

	first := getStats()
	if first.Filter == "" || first.Gamma == 0 {
		t.Errorf("calibrated /stats names no pipeline: %+v", first)
	}
	if math.IsInf(first.MatchPSNRdB, 0) || math.IsNaN(first.MatchPSNRdB) || first.MatchPSNRdB < DefaultProbeFloorDB {
		t.Errorf("match_psnr_db = %v, want a finite match above the %d dB probe floor", first.MatchPSNRdB, DefaultProbeFloorDB)
	}
	if got := scrape(t, px)[`p3_calibration_match_psnr_db{proxy="calib-stats"}`]; got != first.MatchPSNRdB {
		t.Errorf("p3_calibration_match_psnr_db = %v, /stats says %v", got, first.MatchPSNRdB)
	}

	photos.s.Pipeline = psp.Pipeline{Filter: imaging.Box, PreBlur: 0.5, Gamma: 1.1, Quality: 85, Subsampling: jpegx.Sub420}
	if out, err := px.Recalibrate(ctx, false); err != nil || !out.Flipped {
		t.Fatalf("recalibration after a PSP pipeline change: %+v, %v", out, err)
	}
	// Which filter the sweep names for a box PSP is calibration's business;
	// here only that the new epoch's pick is what /stats and the log show.
	second := getStats()
	if second.Epoch != 2 || second.Gamma != 1.1 || second.MatchPSNRdB == first.MatchPSNRdB {
		t.Errorf("/stats after the flip = %+v, want epoch 2 at gamma 1.1 with its own match PSNR", second)
	}
	log.SetOutput(os.Stderr)
	describe := func(st CalibrationStats) string {
		return fmt.Sprintf("%s pre_blur=%g sharpen=%g gamma=%g", st.Filter, st.PreBlur, st.SharpenAmount, st.Gamma)
	}
	for _, want := range []string{
		"calibration epoch 0 → 1: uncalibrated → " + describe(first),
		"calibration epoch 1 → 2: " + describe(first) + " → " + describe(second),
	} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("flip log lacks %q:\n%s", want, logged.String())
		}
	}
}

// TestBackgroundRecalibrationLoop: a proxy built with a recalibrate
// interval probes on its own; Close stops the loop.
func TestBackgroundRecalibrationLoop(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	photos := &countingPhotos{s: psp.NewServer(psp.FlickrLike())}
	px := New(codec, photos, p3.NewMemorySecretStore(),
		WithMetricsRegistry(metrics.NewRegistry()),
		WithRecalibrateInterval(50*time.Millisecond))
	defer px.Close()
	if _, err := px.Calibrate(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for px.Stats().Calibration.ProbeHits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never ran a probe")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := px.CalibrationEpoch(); got != 1 {
		t.Errorf("background probes flipped the epoch to %d on a stable PSP", got)
	}
	px.Close() // idempotent with the deferred Close
}
