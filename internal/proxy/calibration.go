package proxy

// Calibration manager: the §4.1 pipeline identification torn out of the
// request path and rebuilt as an epoch-versioned subsystem.
//
// The identified pipeline lives in a single atomic pointer to an immutable
// core.CalibrationEpoch. Downloads snapshot that pointer once per request
// and derive both the variant-cache key and the reconstruction operator
// from the same snapshot, so a request can never observe a half-flipped
// epoch (old key with new parameters or vice versa). While a recalibration
// is in flight the pointer still holds the previous epoch, and downloads
// keep serving from it — stale-while-revalidate — instead of stalling or
// stampeding; the pointer flips atomically only once the sweep lands.
//
// A recalibration pass is incremental: it uploads one probe photo, fetches
// the PSP's rendition, and re-verifies the currently published parameters
// against it. Only on mismatch (PSNR under the probe floor) does the full
// 72-candidate grid sweep run — parallel on the manager's work.Pool and
// cancellable through ctx, so an abandoned HTTP calibrate doesn't leak a
// multi-second search. A confirmed probe keeps the epoch, and with it the
// entire variant cache.
//
// When the epoch does flip, superseded variants are retired lazily:
// cache.PurgeMatching removes only photo entries of older epochs (epoch is
// the key prefix), sparing calibration-independent video renditions, and
// the manager immediately re-reconstructs the outgoing epoch's top-K
// hottest variants (cache.HotKeys) under the new parameters, so post-flip
// traffic lands on warm entries instead of cold ~16 ms reconstructions.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p3"
	"p3/internal/admission"
	"p3/internal/cache"
	"p3/internal/core"
	"p3/internal/dataset"
	"p3/internal/jpegx"
	"p3/internal/metrics"
)

const (
	// DefaultWarmTopK is how many of the hottest old-epoch variants the
	// manager re-reconstructs after an epoch flip; WithWarmTopK overrides.
	DefaultWarmTopK = 32

	// DefaultProbeFloorDB is the PSNR a probe must reach for the current
	// parameters to be considered still valid. Correctly identified
	// pipelines measure ~34-40 dB (paper §4.1); a PSP pipeline change drops
	// the probe far below, so 30 dB cleanly separates the two.
	DefaultProbeFloorDB = 30

	// backgroundRecalTimeout bounds one periodic recalibration pass.
	backgroundRecalTimeout = 5 * time.Minute
)

// WithRecalibrateInterval makes the proxy re-verify its calibration every d
// in the background (probe first, full sweep only on mismatch). d <= 0 —
// the default — disables the loop; Close stops it.
func WithRecalibrateInterval(d time.Duration) ProxyOption {
	return func(c *proxyConfig) { c.recalInterval = d }
}

// WithWarmTopK sets how many of the hottest old-epoch variants are
// re-reconstructed right after an epoch flip (0 disables pre-warming).
func WithWarmTopK(n int) ProxyOption {
	return func(c *proxyConfig) { c.warmTopK = max(n, 0) }
}

// CalibrationInFlightError reports a calibration request rejected because
// another calibration is already running on this proxy; RetryAfter
// estimates when the slot frees. ServeHTTP maps it to 503 with a
// Retry-After header — the caller's answer is the epoch that lands, not a
// second concurrent sweep.
type CalibrationInFlightError struct {
	RetryAfter time.Duration
}

func (e *CalibrationInFlightError) Error() string {
	return fmt.Sprintf("proxy: calibration already in flight; retry in %s", e.RetryAfter)
}

// CalibrationOutcome reports what one calibration pass did.
type CalibrationOutcome struct {
	Result    core.SearchResult // match quality of the probe or sweep
	Epoch     uint64            // epoch serving after the pass
	FullSweep bool              // the grid sweep ran (false: probe confirmed current params)
	Flipped   bool              // a new epoch was published
	Warmed    int               // variants pre-warmed after the flip
}

// CalibrationStats is the /stats view of the calibration subsystem. The
// identified-pipeline fields describe the published epoch — the operator A
// every reconstruction applies — and are empty or zero until the first
// calibration lands. MatchPSNRdB is how well that operator reproduced the
// PSP's rendition of the calibration photo; an exact match, whose PSNR is
// infinite, reads math.MaxFloat64 because JSON has no infinity.
type CalibrationStats struct {
	Epoch         uint64  `json:"epoch" metric:"gauge" help:"Currently served calibration epoch (0 = not yet calibrated)."`
	Filter        string  `json:"filter"`
	PreBlur       float64 `json:"pre_blur"`
	SharpenAmount float64 `json:"sharpen_amount"`
	Gamma         float64 `json:"gamma"`
	MatchPSNRdB   float64 `json:"match_psnr_db"`
	InFlight      bool    `json:"in_flight" metric:"gauge" help:"1 while a calibration pass is running."`
	Probes        uint64  `json:"probes" metric:"counter" help:"Incremental recalibration probes run (one-photo re-verification)."`
	ProbeHits     uint64  `json:"probe_hits" metric:"counter" help:"Probes that confirmed the current parameters, skipping the full sweep."`
	Sweeps        uint64  `json:"sweeps" metric:"counter" help:"Full candidate-grid sweeps run."`
	Rejected      uint64  `json:"rejected_in_flight" metric:"counter,rejected" help:"Calibration requests rejected because one was already in flight."`
	StaleServes   uint64  `json:"stale_serves" metric:"counter" help:"Downloads served from the previous epoch while a calibration was in flight."`
	Warmed        uint64  `json:"variants_warmed" metric:"counter,warmed" help:"Variants re-reconstructed by post-flip pre-warming."`
	WarmHits      uint64  `json:"warm_hits" metric:"counter" help:"Downloads that landed on a pre-warmed variant entry."`
	ProbeP50Ms    float64 `json:"probe_p50_ms"`
	SweepP50Ms    float64 `json:"sweep_p50_ms"`
}

// calibState is the manager's mutable state, embedded in Proxy.
type calibState struct {
	cur atomic.Pointer[core.CalibrationEpoch] // nil until first calibration

	mu         sync.Mutex // serializes pass admission (busy + passStart writes)
	busy       atomic.Bool
	passStart  time.Time    // when the in-flight pass was admitted
	lastPassNs atomic.Int64 // duration of the last completed pass

	// warmKeys holds the variant keys the last flip pre-warmed that have
	// not yet been served; warmCount mirrors len(warmKeys) so the download
	// hot path can skip the lock when nothing is pending.
	warmMu    sync.Mutex
	warmKeys  map[string]struct{}
	warmCount atomic.Int64

	stop      chan struct{} // closes the background recalibration loop
	done      chan struct{}
	closeOnce sync.Once

	probes      metrics.Counter
	probeHits   metrics.Counter
	sweeps      metrics.Counter
	rejected    metrics.Counter
	staleServes metrics.Counter
	warmed      metrics.Counter
	warmHits    metrics.Counter
	probeHist   *metrics.Histogram
	sweepHist   *metrics.Histogram
}

// initCalibMetrics exports the calibration counters and gauges from the
// stats snapshot and builds the latency histograms in r, labeled with the
// proxy instance name (rows documented in ARCHITECTURE.md).
func (c *calibState) initCalibMetrics(r *metrics.Registry, name string) {
	labels := []metrics.Label{{Key: "proxy", Value: name}}
	c.probeHist = r.Histogram("p3_calibration_probe_seconds",
		"Wall time of recalibration probes (upload + fetch + verify).", labels...)
	c.sweepHist = r.Histogram("p3_calibration_sweep_seconds",
		"Wall time of full candidate-grid sweeps (search only).", labels...)
	metrics.Export(r, "p3_calibration", c.stats, labels...)
	// The match PSNR stays a func: an exact match reads +Inf here, which
	// the snapshot's JSON field has to clamp.
	r.SetGaugeFunc("p3_calibration_match_psnr_db",
		"PSNR (dB) at which the published epoch's pipeline matched the PSP's rendition of the calibration photo (0 = not yet calibrated).",
		func() float64 {
			if ep := c.cur.Load(); ep != nil {
				return ep.Result.PSNR
			}
			return 0
		}, labels...)
}

// stats snapshots the subsystem for the JSON /stats view.
func (c *calibState) stats() CalibrationStats {
	ep := c.cur.Load()
	if ep == nil {
		ep = &core.CalibrationEpoch{} // not yet calibrated: epoch 0, no pipeline
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return CalibrationStats{
		Epoch:         ep.Epoch,
		Filter:        ep.Params.Filter.Name,
		PreBlur:       ep.Params.PreBlur,
		SharpenAmount: ep.Params.SharpenAmount,
		Gamma:         ep.Params.Gamma,
		MatchPSNRdB:   math.Min(ep.Result.PSNR, math.MaxFloat64),
		InFlight:      c.busy.Load(),
		Probes:        c.probes.Value(),
		ProbeHits:     c.probeHits.Value(),
		Sweeps:        c.sweeps.Value(),
		Rejected:      c.rejected.Value(),
		StaleServes:   c.staleServes.Value(),
		Warmed:        c.warmed.Value(),
		WarmHits:      c.warmHits.Value(),
		ProbeP50Ms:    ms(c.probeHist.Snapshot().P50),
		SweepP50Ms:    ms(c.sweepHist.Snapshot().P50),
	}
}

// noteServe attributes one download to the stale-while-revalidate window
// when a calibration pass is in flight.
func (c *calibState) noteServe() {
	if c.busy.Load() {
		c.staleServes.Inc()
	}
}

// setWarm replaces the pending warm-key set with the keys the latest flip
// pre-warmed.
func (c *calibState) setWarm(keys []string) {
	m := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		m[k] = struct{}{}
	}
	c.warmMu.Lock()
	c.warmKeys = m
	c.warmMu.Unlock()
	c.warmCount.Store(int64(len(m)))
}

// noteWarmHit counts the first download landing on a pre-warmed entry. The
// common case — nothing pending — is one atomic load.
func (c *calibState) noteWarmHit(variants *cache.Cache[[]byte], key string) {
	if c.warmCount.Load() == 0 {
		return
	}
	c.warmMu.Lock()
	_, ok := c.warmKeys[key]
	if ok {
		delete(c.warmKeys, key)
	}
	c.warmMu.Unlock()
	if !ok {
		return
	}
	c.warmCount.Add(-1)
	if variants.Contains(key) {
		c.warmHits.Inc()
	}
}

// retryAfterLocked estimates when the in-flight pass completes, from the
// last completed pass's duration. Callers hold c.mu.
func (c *calibState) retryAfterLocked() time.Duration {
	last := time.Duration(c.lastPassNs.Load())
	if last <= 0 {
		last = 5 * time.Second // nothing measured yet: assume a full sweep
	}
	remaining := last - time.Since(c.passStart)
	if remaining < time.Second {
		remaining = time.Second
	}
	return remaining
}

// variantKeyFor addresses one reconstructed rendition in the variant cache.
// The variant is canonicalized through Query() so equivalent requests
// ("w=10&h=20" vs "h=20&w=10") share an entry, and the calibration epoch is
// the key prefix, so reconstructions under superseded parameters can never
// be served after a flip and lazy eviction can match entries by epoch.
func variantKeyFor(epoch uint64, id string, v p3.PhotoVariant) string {
	return fmt.Sprintf("%d\x00%s\x00%s", epoch, id, v.Query().Encode())
}

// parseVariantKey inverts variantKeyFor. Video keys (prefix "video\x00")
// fail the epoch parse and report ok = false.
func parseVariantKey(key string) (id string, v p3.PhotoVariant, ok bool) {
	parts := strings.SplitN(key, "\x00", 3)
	if len(parts) != 3 {
		return "", p3.PhotoVariant{}, false
	}
	if _, err := strconv.ParseUint(parts[0], 10, 64); err != nil {
		return "", p3.PhotoVariant{}, false
	}
	q, err := url.ParseQuery(parts[2])
	if err != nil {
		return "", p3.PhotoVariant{}, false
	}
	variant, err := p3.ParsePhotoVariant(q)
	if err != nil {
		return "", p3.PhotoVariant{}, false
	}
	return parts[1], variant, true
}

// Calibrate runs one incremental calibration pass (see Recalibrate) and
// returns its match quality. Must be called once before reconstructing
// downloads; afterwards it re-verifies rather than re-sweeps, so periodic
// calls are cheap while the PSP's pipeline is stable.
func (p *Proxy) Calibrate(ctx context.Context) (core.SearchResult, error) {
	out, err := p.Recalibrate(ctx, false)
	return out.Result, err
}

// Recalibrate runs one calibration pass against the PSP (§4.1): upload a
// probe photo, fetch the PSP's rendition, and — unless force is set —
// first re-verify the currently published parameters against it, running
// the full candidate sweep only on mismatch. A resulting epoch flip
// atomically publishes the new parameters, lazily retires older-epoch
// variants, and pre-warms the hottest of them under the new parameters.
// Downloads keep serving the previous epoch throughout. At most one pass
// runs per proxy; concurrent calls fail fast with
// *CalibrationInFlightError.
func (p *Proxy) Recalibrate(ctx context.Context, force bool) (_ CalibrationOutcome, err error) {
	defer p.calibrate.observe(time.Now(), &err)
	release, err := p.admit(ctx, admission.Calibrate)
	if err != nil {
		return CalibrationOutcome{}, err
	}
	defer release()
	c := &p.calib
	c.mu.Lock()
	if c.busy.Load() {
		retry := c.retryAfterLocked()
		c.mu.Unlock()
		c.rejected.Inc()
		return CalibrationOutcome{}, &CalibrationInFlightError{RetryAfter: retry}
	}
	c.busy.Store(true)
	c.passStart = time.Now()
	c.mu.Unlock()
	defer func() {
		c.lastPassNs.Store(int64(time.Since(c.passStart)))
		c.busy.Store(false)
	}()
	return p.runCalibration(ctx, force)
}

// runCalibration is the pass body; the caller holds the busy slot.
func (p *Proxy) runCalibration(ctx context.Context, force bool) (CalibrationOutcome, error) {
	c := &p.calib
	calib := dataset.Natural(0xca11b, 512, 384)
	coeffs, err := calib.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		return CalibrationOutcome{}, err
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		return CalibrationOutcome{}, err
	}
	probeStart := time.Now()
	id, err := p.photos.UploadPhoto(ctx, buf.Bytes())
	if err != nil {
		return CalibrationOutcome{}, fmt.Errorf("proxy: calibration upload: %w", err)
	}
	// The calibration image is scaffolding, not user data: remove it from
	// the PSP once the pass is over, even a failed or cancelled one.
	defer p.deleteCalibrationPhoto(ctx, id)
	served, err := p.photos.FetchPhoto(ctx, id, p3.PhotoVariant{Size: "small"})
	if err != nil {
		return CalibrationOutcome{}, fmt.Errorf("proxy: calibration download: %w", err)
	}
	servedIm, err := jpegx.Decode(bytes.NewReader(served))
	if err != nil {
		return CalibrationOutcome{}, err
	}
	// The uploaded calibration image itself was decoded by the PSP from our
	// JPEG; compare against what we actually sent.
	sent, err := jpegx.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return CalibrationOutcome{}, err
	}
	sentP, servedP := sent.ToPlanar(), servedIm.ToPlanar()

	prev := c.cur.Load()
	if prev != nil && !force {
		res := prev.Params.Verify(sentP, servedP)
		c.probes.Inc()
		c.probeHist.Observe(time.Since(probeStart))
		if res.PSNR >= DefaultProbeFloorDB {
			// The published parameters still reproduce the PSP: keep the
			// epoch, and with it every cached variant.
			c.probeHits.Inc()
			return CalibrationOutcome{Result: res, Epoch: prev.Epoch}, nil
		}
	}

	sweepStart := time.Now()
	params, res, err := core.SearchParamsCtx(ctx, sentP, servedP, p.calibPool)
	if err != nil {
		return CalibrationOutcome{}, err
	}
	c.sweeps.Inc()
	c.sweepHist.Observe(time.Since(sweepStart))

	// Record the outgoing epoch's working set before retiring it; the
	// pre-warm below rebuilds it under the new parameters. Oversample so
	// video renditions mixed into the ranking don't eat photo slots.
	var hot []cache.HotKey
	if prev != nil && p.warmTopK > 0 {
		hot = p.variants.HotKeys(2 * p.warmTopK)
	}

	next := &core.CalibrationEpoch{Epoch: 1, Params: params, Result: res}
	if prev != nil {
		next.Epoch = prev.Epoch + 1
	}
	c.cur.Store(next)
	log.Printf("proxy: calibration epoch %d → %d: %s → %s (match %.2f dB)",
		next.Epoch-1, next.Epoch, describeEpoch(prev), describeEpoch(next), res.PSNR)

	// Lazy retirement: only photo variants of superseded epochs go; video
	// renditions are calibration-independent and any entry already keyed
	// under the new epoch stays. (A reconstruction in flight across this
	// point is additionally blocked from inserting by the cache's
	// generation check.)
	curPrefix := fmt.Sprintf("%d\x00", next.Epoch)
	p.variants.PurgeMatching(func(key string) bool {
		return !strings.HasPrefix(key, videoKeyPrefix) && !strings.HasPrefix(key, curPrefix)
	})

	warmed := p.prewarm(ctx, next, hot)
	return CalibrationOutcome{Result: res, Epoch: next.Epoch, FullSweep: true, Flipped: true, Warmed: warmed}, nil
}

// describeEpoch names an epoch's identified pipeline for the flip log line.
func describeEpoch(ep *core.CalibrationEpoch) string {
	if ep == nil {
		return "uncalibrated"
	}
	p := ep.Params
	return fmt.Sprintf("%s pre_blur=%g sharpen=%g gamma=%g", p.Filter.Name, p.PreBlur, p.SharpenAmount, p.Gamma)
}

// prewarm re-reconstructs the outgoing epoch's hottest variants under the
// freshly published epoch, fanned out on the calibration pool, so post-flip
// traffic finds warm entries. Best-effort: a photo deleted since it was
// cached just stays cold.
func (p *Proxy) prewarm(ctx context.Context, ep *core.CalibrationEpoch, hot []cache.HotKey) int {
	type target struct {
		id string
		v  p3.PhotoVariant
	}
	var targets []target
	for _, hk := range hot {
		if len(targets) >= p.warmTopK {
			break
		}
		id, v, ok := parseVariantKey(hk.Key)
		if !ok {
			continue // video rendition or foreign key shape
		}
		targets = append(targets, target{id: id, v: v})
	}
	if len(targets) == 0 {
		return 0
	}
	var warmedKeys sync.Map
	p.calibPool.Do(len(targets), func(i int) error {
		key := variantKeyFor(ep.Epoch, targets[i].id, targets[i].v)
		_, err := p.variants.GetOrLoad(ctx, key, func(ctx context.Context) ([]byte, error) {
			return p.serveVariant(ctx, &ep.Params, targets[i].id, targets[i].v)
		})
		if err == nil {
			warmedKeys.Store(key, struct{}{})
		}
		return nil
	})
	var keys []string
	warmedKeys.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	p.calib.setWarm(keys)
	p.calib.warmed.Add(uint64(len(keys)))
	return len(keys)
}

// deleteCalibrationPhoto best-effort removes the calibration image a pass
// uploaded to the PSP, detached from ctx so a cancelled calibrate still
// cleans up. Failures are logged, never fatal: a leftover probe image costs
// the PSP a few kilobytes, not correctness.
func (p *Proxy) deleteCalibrationPhoto(ctx context.Context, id string) {
	del, ok := p.photos.(p3.PhotoDeleter)
	if !ok {
		return
	}
	if err := del.DeletePhoto(context.WithoutCancel(ctx), id); err != nil {
		log.Printf("proxy: deleting calibration photo %q: %v", id, err)
	}
}

// Calibrated reports whether the PSP pipeline has been identified.
func (p *Proxy) Calibrated() bool { return p.calib.cur.Load() != nil }

// CalibrationEpoch returns the currently served epoch number (0 until the
// first calibration lands).
func (p *Proxy) CalibrationEpoch() uint64 {
	if ep := p.calib.cur.Load(); ep != nil {
		return ep.Epoch
	}
	return 0
}

// CalibrationInFlight reports whether a calibration pass is running.
func (p *Proxy) CalibrationInFlight() bool { return p.calib.busy.Load() }

// startRecalibrationLoop runs periodic incremental recalibration until
// Close. A pass that loses the admission race to a foreground calibrate is
// silently skipped — its work was done for us.
func (p *Proxy) startRecalibrationLoop(interval time.Duration) {
	c := &p.calib
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), backgroundRecalTimeout)
				_, err := p.Recalibrate(ctx, false)
				cancel()
				if err != nil && !errors.As(err, new(*CalibrationInFlightError)) {
					log.Printf("proxy: background recalibration: %v", err)
				}
			}
		}
	}()
}

// Close stops the background recalibration loop, waiting out a pass already
// in flight. The proxy stays usable; Close exists so tests and embedding
// servers can shut the goroutine down cleanly, and is safe to call more
// than once (or on a proxy that never started the loop).
func (p *Proxy) Close() {
	c := &p.calib
	if c.stop == nil {
		return
	}
	c.closeOnce.Do(func() { close(c.stop) })
	<-c.done
}
