// Package proxy implements P3's client-side trusted proxy (§4.1): a small
// HTTP service on the user's device that interposes on PSP traffic. On
// upload it transparently splits a photo, sends the public part to the PSP
// and the encrypted secret part to a blob store under the PSP-assigned ID;
// on download it fetches both parts, reverses the PSP's (calibrated)
// transform per Eq. (2), and hands the application a reconstructed JPEG.
// Applications speak the PSP's own API to the proxy; neither the PSP nor
// the app changes.
//
// The proxy is a pure consumer of the public p3 surface: it splits and
// reconstructs through a p3.Codec and talks to the two untrusted parties
// through the p3.PhotoService and p3.SecretStore interfaces, so HTTP,
// in-memory, disk, or sharded backends drop in interchangeably.
//
// Alongside photos the proxy serves P3MJ video clips (§4.2) end to end:
// POST /video/upload splits every frame and stores the public stream and
// the sealed secret container in the blob store; GET /video/{id} joins the
// clip back, and GET /video/{id}?frame=N seeks a single frame. See the
// video.go file comment for the storage and caching model.
//
// # Serving layer
//
// Every photo view flows through the proxy, so it keeps three bounded,
// stampede-proof caches (internal/cache):
//
//   - secrets: sealed secret containers by photo ID. A thumbnail view
//     followed by a full view downloads the secret part once (§4.1), and N
//     concurrent first views cost the blob store one GetSecret, not N.
//   - dims: the PSP's stored dimensions by photo ID, needed to map crop
//     coordinates; warmed at upload time when the PSP reports them.
//   - variants: fully reconstructed JPEG bytes by (epoch, ID, variant), so
//     the fan-out of one popular photo is served from memory and concurrent
//     misses coalesce into a single fetch+reconstruct. Keys are prefixed
//     with the calibration epoch: an epoch flip retires superseded photo
//     entries lazily via PurgeMatching and pre-warms the hottest of them
//     under the new parameters (see calibration.go); clip renditions are
//     calibration-independent and stay.
//
// All three are LRU-bounded (bytes and entries), so proxy memory stays flat
// no matter how many distinct photos flow through; Stats exposes hit,
// miss, coalesce and eviction counters for each.
//
// # Observability
//
// The proxy instruments its operations (download, upload, calibrate and
// the rest) with request/error counters and log-scale latency histograms
// (internal/metrics). Its caches' and the calibration subsystem's counters
// and gauges are the tagged fields of their Stats snapshots (cache.Stats,
// CalibrationStats), which New hands to metrics.Export; the store, dedup
// layer, similarity index and admission controller export their own Stats
// the same way where they are built. Everything lands in one metrics
// registry (metrics.Default unless WithMetricsRegistry overrides it)
// served as Prometheus-style text on GET /metrics; GET /stats serves the
// same snapshots as JSON. The series names follow the one scheme
// documented in ARCHITECTURE.md, where a test holds every row to a real
// series.
package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"p3"
	"p3/internal/admission"
	"p3/internal/cache"
	"p3/internal/core"
	"p3/internal/dedup"
	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/metrics"
	"p3/internal/similarity"
	"p3/internal/work"
)

// Default cache budgets: sized for a phone-class device fronting a busy
// feed — enough to absorb a session's working set, small enough to never
// matter against the host's memory.
const (
	DefaultSecretCacheBytes  = 64 << 20
	DefaultVariantCacheBytes = 32 << 20
	DefaultDimsCacheEntries  = 1 << 16

	// maxCacheEntries backstops the byte-bounded caches against pathological
	// swarms of tiny entries blowing up map overhead.
	maxCacheEntries = 1 << 16

	// maxIDLen bounds accepted photo IDs; real PSP IDs are short opaque
	// tokens, and an unbounded ID is an unbounded cache key.
	maxIDLen = 512
)

// ProxyOption configures a Proxy at construction time.
type ProxyOption func(*proxyConfig)

type proxyConfig struct {
	secretCacheBytes  int64
	variantCacheBytes int64
	videoMaxBytes     int64
	registry          *metrics.Registry
	name              string
	warmTopK          int
	recalInterval     time.Duration
	admission         *admission.Controller
	similarity        *similarity.Index
}

// WithSecretCacheBytes bounds the sealed-secret-part cache. Values < 1 are
// clamped to 1, which effectively disables retention while still coalescing
// concurrent fetches of one ID.
func WithSecretCacheBytes(n int64) ProxyOption {
	return func(c *proxyConfig) { c.secretCacheBytes = max(n, 1) }
}

// WithVariantCacheBytes bounds the reconstructed-variant cache. Values < 1
// are clamped to 1 (retention off, coalescing still on).
func WithVariantCacheBytes(n int64) ProxyOption {
	return func(c *proxyConfig) { c.variantCacheBytes = max(n, 1) }
}

// WithMetricsRegistry points the proxy's instruments at a private registry
// instead of metrics.Default. Tests use it for isolation; processes running
// several proxies use it (or WithMetricsName) to keep their series apart.
// Note the codec's own split/join histograms always live in
// metrics.Default — they are process-wide by design.
func WithMetricsRegistry(r *metrics.Registry) ProxyOption {
	return func(c *proxyConfig) { c.registry = r }
}

// WithMetricsName sets the value of the proxy="..." label on this
// instance's metric series (default "proxy"). Two proxies sharing one
// registry must carry distinct names, or the later one's Stats-backed
// series (cache and calibration counters and gauges) replace the earlier
// one's, and their operation counters and histograms merge.
func WithMetricsName(name string) ProxyOption {
	return func(c *proxyConfig) { c.name = name }
}

// OpStats summarizes one proxy operation (download, upload or calibrate)
// for the JSON /stats view: cumulative request and error counts plus
// latency percentiles estimated from the same log-scale histogram /metrics
// exposes as p3_proxy_latency_seconds.
type OpStats struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// Stats is a snapshot of the proxy's serving layer: the three caches and
// the operations. Field names mirror the /metrics naming scheme
// (ARCHITECTURE.md): each tagged cache.Stats field is the p3_cache_*
// series labeled with this cache's name, and each OpStats summarizes the
// p3_proxy_* series labeled with the operation.
type Stats struct {
	Secrets       cache.Stats      `json:"secrets"`
	Dims          cache.Stats      `json:"dims"`
	Variants      cache.Stats      `json:"variants"`
	Download      OpStats          `json:"download"`
	Upload        OpStats          `json:"upload"`
	Calibrate     OpStats          `json:"calibrate"`
	VideoUpload   OpStats          `json:"video_upload"`
	VideoDownload OpStats          `json:"video_download"`
	Delete        OpStats          `json:"delete"`
	Similar       OpStats          `json:"similar"`
	Calibration   CalibrationStats `json:"calibration"`
	Admission     *admission.Stats `json:"admission,omitempty"`

	// Dedup and Similarity report the optional dedup layer and similarity
	// index when configured (see similar.go); nil otherwise.
	Dedup      *dedup.Stats      `json:"dedup,omitempty"`
	Similarity *similarity.Stats `json:"similarity,omitempty"`
}

// Proxy is one user's trusted middlebox. Senders and recipients run
// independent proxies sharing only the out-of-band symmetric key (via their
// Codecs).
type Proxy struct {
	codec  *p3.Codec
	photos p3.PhotoService
	store  p3.SecretStore

	// calib publishes the identified PSP pipeline as an atomic epoch
	// snapshot (see calibration.go); calibPool fans out the sweep and the
	// post-flip pre-warm without competing for the codec's pool.
	calib     calibState
	calibPool *work.Pool
	warmTopK  int

	secrets  *cache.Cache[[]byte] // photo ID / clip blob name → stored bytes
	dims     *cache.Cache[[2]int] // photo ID → PSP stored dims
	variants *cache.Cache[[]byte] // ID+variant (or clip ID+frame) → reconstructed bytes

	videoMaxBytes int64 // largest accepted clip upload

	// admission, when non-nil, gates every serving operation (see admit.go).
	admission *admission.Controller

	// sim, when non-nil, is the perceptual-hash index fed by uploads and
	// served on /similar (see similar.go).
	sim *similarity.Index

	reg           *metrics.Registry // where this instance's series live
	download      opMetrics
	upload        opMetrics
	calibrate     opMetrics
	videoUpload   opMetrics
	videoDownload opMetrics
	deleteOp      opMetrics
	similarOp     opMetrics
}

// opMetrics instruments one proxy operation: a request counter, an error
// counter, and a latency histogram.
type opMetrics struct {
	requests *metrics.Counter
	errors   *metrics.Counter
	latency  *metrics.Histogram
}

// observe records one finished call; use as
// `defer p.download.observe(time.Now(), &err)` so the deferred read sees
// the function's final error.
func (m *opMetrics) observe(start time.Time, err *error) {
	m.requests.Inc()
	if *err != nil {
		m.errors.Inc()
	}
	m.latency.Observe(time.Since(start))
}

// stats summarizes the operation for the JSON /stats view.
func (m *opMetrics) stats() OpStats {
	s := m.latency.Snapshot()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return OpStats{
		Count:  m.requests.Value(),
		Errors: m.errors.Value(),
		P50Ms:  ms(s.P50),
		P95Ms:  ms(s.P95),
		P99Ms:  ms(s.P99),
	}
}

// newOpMetrics builds the instruments for one operation in r, labeled with
// the proxy instance name and the operation.
func newOpMetrics(r *metrics.Registry, proxyName, op string) opMetrics {
	labels := []metrics.Label{{Key: "proxy", Value: proxyName}, {Key: "op", Value: op}}
	return opMetrics{
		requests: r.Counter("p3_proxy_requests_total",
			"Proxy operations started, by instance and operation.", labels...),
		errors: r.Counter("p3_proxy_errors_total",
			"Proxy operations that returned an error, by instance and operation.", labels...),
		latency: r.Histogram("p3_proxy_latency_seconds",
			"Proxy operation wall time, by instance and operation.", labels...),
	}
}

// New builds a proxy that drives the split/reconstruct algorithm through
// codec and reaches the PSP and blob store through the given backends.
func New(codec *p3.Codec, photos p3.PhotoService, secrets p3.SecretStore, opts ...ProxyOption) *Proxy {
	cfg := proxyConfig{
		secretCacheBytes:  DefaultSecretCacheBytes,
		variantCacheBytes: DefaultVariantCacheBytes,
		videoMaxBytes:     DefaultVideoMaxBytes,
		registry:          metrics.Default,
		name:              "proxy",
		warmTopK:          DefaultWarmTopK,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	byteLen := func(b []byte) int { return len(b) }
	p := &Proxy{
		codec:         codec,
		photos:        photos,
		store:         secrets,
		calibPool:     work.New(runtime.GOMAXPROCS(0)),
		warmTopK:      cfg.warmTopK,
		secrets:       cache.New(cfg.secretCacheBytes, maxCacheEntries, byteLen),
		dims:          cache.New[[2]int](0, DefaultDimsCacheEntries, nil),
		variants:      cache.New(cfg.variantCacheBytes, maxCacheEntries, byteLen),
		videoMaxBytes: cfg.videoMaxBytes,
		admission:     cfg.admission,
		sim:           cfg.similarity,
		reg:           cfg.registry,
		download:      newOpMetrics(cfg.registry, cfg.name, "download"),
		upload:        newOpMetrics(cfg.registry, cfg.name, "upload"),
		calibrate:     newOpMetrics(cfg.registry, cfg.name, "calibrate"),
		videoUpload:   newOpMetrics(cfg.registry, cfg.name, "video_upload"),
		videoDownload: newOpMetrics(cfg.registry, cfg.name, "video_download"),
		deleteOp:      newOpMetrics(cfg.registry, cfg.name, "delete"),
		similarOp:     newOpMetrics(cfg.registry, cfg.name, "similar"),
	}
	p.calib.initCalibMetrics(cfg.registry, cfg.name)
	cacheLabels := func(name string) []metrics.Label {
		return []metrics.Label{{Key: "proxy", Value: cfg.name}, {Key: "cache", Value: name}}
	}
	metrics.Export(cfg.registry, "p3_cache", p.secrets.Stats, cacheLabels("secrets")...)
	metrics.Export(cfg.registry, "p3_cache", p.dims.Stats, cacheLabels("dims")...)
	metrics.Export(cfg.registry, "p3_cache", p.variants.Stats, cacheLabels("variants")...)
	if cfg.recalInterval > 0 {
		p.startRecalibrationLoop(cfg.recalInterval)
	}
	return p
}

// Stats returns a snapshot of the cache and operation counters.
func (p *Proxy) Stats() Stats {
	var adm *admission.Stats
	if p.admission != nil {
		s := p.admission.Stats()
		adm = &s
	}
	s := Stats{
		Admission:     adm,
		Secrets:       p.secrets.Stats(),
		Dims:          p.dims.Stats(),
		Variants:      p.variants.Stats(),
		Download:      p.download.stats(),
		Upload:        p.upload.stats(),
		Calibrate:     p.calibrate.stats(),
		VideoUpload:   p.videoUpload.stats(),
		VideoDownload: p.videoDownload.stats(),
		Delete:        p.deleteOp.stats(),
		Similar:       p.similarOp.stats(),
		Calibration:   p.calib.stats(),
	}
	if ds, ok := p.photos.(dedupStatser); ok {
		d := ds.DedupStats()
		s.Dedup = &d
	}
	if p.sim != nil {
		ss := p.sim.Stats()
		s.Similarity = &ss
	}
	return s
}

// InvalidateCaches empties every serving cache (benchmarks use it to
// measure the cold path; operators can hit it after blob-store surgery).
func (p *Proxy) InvalidateCaches() {
	p.secrets.Purge()
	p.dims.Purge()
	p.variants.Purge()
}

// key returns the shared symmetric key in the representation core expects.
func (p *Proxy) key() core.Key { return core.Key(p.codec.Key()) }

// RequestError marks a failure caused by the request itself — a malformed
// variant query, a hostile photo ID, an undecodable upload — as opposed to
// a backend failure. ServeHTTP maps it to 400.
type RequestError struct {
	Err error
}

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// PartialUploadError reports an upload that stored the public part (on the
// PSP for photos, in the blob store for video clips) but then failed to
// store the secret part. Without the secret part the object can never be
// reconstructed, so the proxy attempts best-effort deletion of the
// orphaned public part; ID records which object was involved so callers
// can retry or reconcile.
type PartialUploadError struct {
	ID         string // ID of the orphaned public part
	Err        error  // the secret-store failure
	Cleaned    bool   // the public part was successfully deleted
	CleanupErr error  // deletion was attempted and failed (nil if Cleaned or unsupported)
}

func (e *PartialUploadError) Error() string {
	state := "public part left orphaned"
	switch {
	case e.Cleaned:
		state = "public part deleted"
	case e.CleanupErr != nil:
		state = fmt.Sprintf("cleanup failed: %v", e.CleanupErr)
	}
	return fmt.Sprintf("proxy: storing secret part for %q: %v (%s)", e.ID, e.Err, state)
}

func (e *PartialUploadError) Unwrap() error { return e.Err }

// errNotCalibrated is the proxy's own not-ready state; ServeHTTP maps it to
// 503 rather than blaming the client (400) or the backends (502).
var errNotCalibrated = errors.New("proxy: not calibrated; call Calibrate first")

// validateID vets an application- or PSP-supplied photo ID at the trust
// boundary. IDs are opaque single tokens: anything path-shaped ("a/../b")
// would escape the blob namespace on naive backends, so it is rejected here
// regardless of how careful each backend is.
func validateID(id string) error {
	switch {
	case id == "":
		return &RequestError{Err: errors.New("proxy: empty photo id")}
	case len(id) > maxIDLen:
		return &RequestError{Err: fmt.Errorf("proxy: photo id longer than %d bytes", maxIDLen)}
	case strings.ContainsAny(id, `/\`), strings.Contains(id, ".."):
		return &RequestError{Err: fmt.Errorf("proxy: invalid photo id %q", id)}
	}
	return nil
}

// Upload splits the photo, uploads the public part to the PSP, and names
// the sealed secret part after the returned photo ID in the blob store. The
// secret and dims caches are warmed from the upload itself, so the
// uploader's first view costs no extra backend fetches.
func (p *Proxy) Upload(ctx context.Context, jpegBytes []byte) (_ string, err error) {
	defer p.upload.observe(time.Now(), &err)
	release, err := p.admit(ctx, admission.Cold)
	if err != nil {
		return "", err
	}
	defer release()
	out, err := p.codec.SplitBytes(jpegBytes)
	if err != nil {
		// The split failing means the input was not a usable JPEG — the
		// client's problem, not the backends'.
		return "", &RequestError{Err: err}
	}
	var id string
	var storedW, storedH int
	if ud, ok := p.photos.(p3.UploadDimsService); ok {
		id, storedW, storedH, err = ud.UploadPhotoWithDims(ctx, out.PublicJPEG)
	} else {
		id, err = p.photos.UploadPhoto(ctx, out.PublicJPEG)
	}
	if err != nil {
		return "", err
	}
	if err := validateID(id); err != nil {
		// A PSP handing back a path-shaped ID is hostile or broken: refuse
		// to address blobs with it, clean up the part we just stored, and
		// blame the backend (plain error → 502), not the client's request.
		p.deletePublicPart(ctx, id)
		return "", fmt.Errorf("proxy: PSP returned unusable photo id %q", id)
	}
	if err := p.store.PutSecret(ctx, id, out.SecretBlob); err != nil {
		perr := &PartialUploadError{ID: id, Err: err}
		if cleaned, cerr := p.deletePublicPart(ctx, id); cleaned {
			perr.Cleaned = true
		} else {
			perr.CleanupErr = cerr
		}
		return "", perr
	}
	p.secrets.Put(id, exact(out.SecretBlob))
	if storedW > 0 && storedH > 0 {
		p.dims.Put(id, [2]int{storedW, storedH})
	}
	if p.sim != nil {
		// Index the canonical public part off the request path. PublicJPEG
		// is never mutated after the split, so handing it to the background
		// hashers is safe.
		p.sim.Enqueue(id, out.PublicJPEG)
	}
	return id, nil
}

// deletePublicPart best-effort removes an unusable public part from the
// PSP (if the backend supports deletion), detached from ctx's cancellation
// so a dead client doesn't leave the orphan behind.
func (p *Proxy) deletePublicPart(ctx context.Context, id string) (cleaned bool, err error) {
	del, ok := p.photos.(p3.PhotoDeleter)
	if !ok {
		return false, nil
	}
	if err := del.DeletePhoto(context.WithoutCancel(ctx), id); err != nil {
		return false, err
	}
	return true, nil
}

// fetchSecret returns the sealed secret container through the bounded
// cache: repeat views hit memory, and concurrent misses on one ID coalesce
// into a single blob-store fetch.
func (p *Proxy) fetchSecret(ctx context.Context, id string) ([]byte, error) {
	return p.secrets.GetOrLoad(ctx, id, func(ctx context.Context) ([]byte, error) {
		b, err := p.store.GetSecret(ctx, id)
		return exact(b), err
	})
}

// storedDims returns the PSP's stored (full-size re-encode) dimensions,
// cached and coalesced like fetchSecret. Uploads through this proxy warm it
// when the PSP reports dimensions; otherwise the first cropped view pays
// one full-size config fetch.
func (p *Proxy) storedDims(ctx context.Context, id string) (int, int, error) {
	d, err := p.dims.GetOrLoad(ctx, id, func(ctx context.Context) ([2]int, error) {
		full, err := p.photos.FetchPhoto(ctx, id, p3.PhotoVariant{})
		if err != nil {
			return [2]int{}, err
		}
		w, h, _, _, err := jpegx.DecodeConfig(bytes.NewReader(full))
		if err != nil {
			return [2]int{}, err
		}
		return [2]int{w, h}, nil
	})
	if err != nil {
		return 0, 0, err
	}
	return d[0], d[1], nil
}

// Download fetches a photo variant and reconstructs it. Query parameters
// mirror the PSP's API (size=big|small|thumb, w/h, crop=x,y,w,h). The
// result is a freshly encoded JPEG of the reconstructed image, served from
// the bounded variant cache when possible; concurrent requests for one
// (id, variant) run the fetch+reconstruct once. Callers must treat the
// returned bytes as immutable — they are shared with the cache.
//
// The cache key and the reconstruction parameters both come from one
// calibration-epoch snapshot taken at entry, so a recalibration landing
// mid-request cannot mix epochs; the request simply completes against the
// epoch it started under (stale-while-revalidate).
func (p *Proxy) Download(ctx context.Context, id string, q url.Values) (_ []byte, err error) {
	defer p.download.observe(time.Now(), &err)
	if err := validateID(id); err != nil {
		return nil, err
	}
	variant, err := p3.ParsePhotoVariant(q)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	ep := p.calib.cur.Load()
	if ep == nil {
		return nil, errNotCalibrated
	}
	p.calib.noteServe()
	key := variantKeyFor(ep.Epoch, id, variant)
	release, err := p.admit(ctx, p.downloadClass(key))
	if err != nil {
		return nil, err
	}
	defer release()
	p.calib.noteWarmHit(p.variants, key)
	return p.variants.GetOrLoad(ctx, key, func(ctx context.Context) ([]byte, error) {
		return p.serveVariant(ctx, &ep.Params, id, variant)
	})
}

// views keeps idle cold-view working sets (core.ViewScratch), at most one
// per CPU, and hands out the most recently used first. A sync.Pool made
// reuse hang on scheduling and collection: each loader runs on a goroutine
// of its own (cache.GetOrLoad), which often missed the scratch left in
// another P's private slot, and collections emptied the pool. The price:
// idle scratches, sized by the largest view each served (about 100 MB at
// 1600×1200), stay live for the process's lifetime.
var views struct {
	sync.Mutex
	idle []*core.ViewScratch
}

// getView returns the most recently put scratch, or a new one.
func getView() *core.ViewScratch {
	views.Lock()
	defer views.Unlock()
	n := len(views.idle)
	if n == 0 {
		return new(core.ViewScratch)
	}
	s := views.idle[n-1]
	views.idle[n-1], views.idle = nil, views.idle[:n-1]
	return s
}

// putView keeps s for the next view unless one per CPU are idle already.
func putView(s *core.ViewScratch) {
	views.Lock()
	defer views.Unlock()
	if len(views.idle) < runtime.GOMAXPROCS(0) {
		views.idle = append(views.idle, s)
	}
}

// variantEncoding is how a reconstructed rendition is served (and the
// variant cache holds it): baseline, q95, 4:2:0, optimised Huffman tables,
// in a slice of exactly its length (ViewScratch.Encode).
var variantEncoding = jpegx.PixelEncodeOptions{Quality: 95, Subsampling: jpegx.Sub420, EncodeOptions: jpegx.EncodeOptions{OptimizeHuffman: true}}

// serveVariant is a cold view's bytes: the reconstruction on a recycled
// scratch, serialized under variantEncoding through that scratch's
// coefficient blocks and buffers.
func (p *Proxy) serveVariant(ctx context.Context, params *core.PipelineParams, id string, variant p3.PhotoVariant) ([]byte, error) {
	s := getView()
	defer putView(s)
	pix, err := p.reconstructWith(ctx, params, id, variant, s, false)
	if err != nil {
		return nil, err
	}
	return s.Encode(pix, &variantEncoding)
}

// exact returns b with no spare capacity. The secret and variant caches
// charge a value's len, so every value they hold goes through it
// (serveVariant's are exact already). Spare capacity of at most an eighth
// of len(b), the order of the allocator's own rounding of an exact-size
// allocation (an erasure-coded blob's stripe padding, os.ReadFile's extra
// byte), is cut off in place; more, as a grown buffer leaves, is shed by
// copying.
func exact(b []byte) []byte {
	if cap(b)-len(b) <= len(b)/8 {
		return b[:len(b):len(b)]
	}
	return append(make([]byte, 0, len(b)), b...)
}

// DownloadPixels is Download without the final JPEG encode. Pixel results
// are not cached (the variant cache holds encoded bytes), but the secret
// and dims fetches underneath still are. It counts toward the download
// metrics like Download does.
func (p *Proxy) DownloadPixels(ctx context.Context, id string, q url.Values) (_ *jpegx.PlanarImage, err error) {
	defer p.download.observe(time.Now(), &err)
	if err := validateID(id); err != nil {
		return nil, err
	}
	variant, err := p3.ParsePhotoVariant(q)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	ep := p.calib.cur.Load()
	if ep == nil {
		return nil, errNotCalibrated
	}
	p.calib.noteServe()
	// Pixel downloads bypass the variant cache, so they always pay the
	// reconstruction — Cold regardless of what the cache holds.
	release, err := p.admit(ctx, admission.Cold)
	if err != nil {
		return nil, err
	}
	defer release()
	s := getView()
	defer putView(s)
	return p.reconstructWith(ctx, &ep.Params, id, variant, s, true)
}

// reconstructWith fetches both parts of one variant and reverses the PSP's
// transform per Eq. (2) under the given calibrated parameters — always an
// epoch snapshot's, so the caller's cache key and operator agree — on s
// (core.ViewScratch.Join; fresh when the planes outlive s). The secret side
// is one scan of its coefficients, then one composed pass per axis from
// each component's non-zero coefficients to the served grid, whatever the
// rendition.
func (p *Proxy) reconstructWith(ctx context.Context, params *core.PipelineParams, id string, variant p3.PhotoVariant, s *core.ViewScratch, fresh bool) (*jpegx.PlanarImage, error) {
	publicBytes, err := p.photos.FetchPhoto(ctx, id, variant)
	if err != nil {
		return nil, err
	}
	secretBlob, err := p.fetchSecret(ctx, id)
	if err != nil {
		return nil, err
	}
	return s.Join(p.key(), publicBytes, secretBlob, func(origW, origH, servedW, servedH int) (imaging.Op, error) {
		return p.buildOp(ctx, id, variant, params, origW, origH, servedW, servedH)
	}, fresh, nil)
}

// buildOp builds the operator mapping the original public part to the served
// variant: optional crop (coordinates arrive in stored-image space; mapped
// to original space and clamped to it) followed by the calibrated pipeline
// instantiated at the served dimensions. A crop outside the stored image is
// a *RequestError.
func (p *Proxy) buildOp(ctx context.Context, id string, variant p3.PhotoVariant, params *core.PipelineParams,
	origW, origH, servedW, servedH int) (imaging.Compose, error) {
	var op imaging.Compose
	if variant.Crop != nil {
		crop := imaging.Crop{X: variant.Crop.X, Y: variant.Crop.Y, W: variant.Crop.W, H: variant.Crop.H}
		storedW, storedH, err := p.storedDims(ctx, id)
		if err != nil {
			return nil, err
		}
		// A rectangle that misses the stored image is the client's mistake
		// whatever the PSP made of it; mapCrop would clamp it onto the edge
		// pixel and imaging.Crop would panic on it.
		if _, _, err := imaging.OutputSize(crop, storedW, storedH); err != nil {
			return nil, &RequestError{Err: err}
		}
		op = append(op, mapCrop(crop, origW, origH, storedW, storedH))
	}
	op = append(op, params.Instantiate(servedW, servedH))
	return op, nil
}

// mapCrop maps a crop rectangle from stored-image coordinates (the space
// crop= queries address) onto the original/secret-part pixel grid. The
// rectangle is first clamped to the stored image, so no edge a client sends
// can overflow the scaling. Each edge — left, top, right, bottom — is then
// scaled and rounded to the nearest pixel independently (not X/W pairs,
// which would let the far edge drift), then clamped to the image. The
// previous truncating division shifted crops by up to a pixel and shrank the
// window at non-integral scale factors.
func mapCrop(c imaging.Crop, origW, origH, storedW, storedH int) imaging.Crop {
	c = c.Clamped(storedW, storedH)
	sx := func(v int) int { return roundDiv(v*origW, storedW) }
	sy := func(v int) int { return roundDiv(v*origH, storedH) }
	x := clampInt(sx(c.X), 0, origW-1)
	y := clampInt(sy(c.Y), 0, origH-1)
	right := clampInt(sx(c.X+c.W), x+1, origW)
	bottom := clampInt(sy(c.Y+c.H), y+1, origH)
	return imaging.Crop{X: x, Y: y, W: right - x, H: bottom - y}
}

// roundDiv divides non-negative a by positive b, rounding to nearest (half
// up).
func roundDiv(a, b int) int { return (a + b/2) / b }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// statusFor maps a serving error onto the HTTP status the application
// deserves: its own malformed request is 400, a photo the PSP or blob store
// does not hold is 404, the proxy's own not-calibrated state is 503, and
// only genuine backend failures surface as 502.
func statusFor(err error) int {
	var reqErr *RequestError
	var inFlight *CalibrationInFlightError
	var shed *admission.ShedError
	switch {
	case errors.As(err, &reqErr):
		return http.StatusBadRequest
	case p3.IsNotFound(err):
		return http.StatusNotFound
	case errors.Is(err, errNotCalibrated):
		return http.StatusServiceUnavailable
	case errors.As(err, &inFlight), errors.As(err, &shed):
		// Back-pressure, not failure: a running calibration will answer for
		// everyone, a shed request should simply come back later;
		// Retry-After (setRetryAfter) says when.
		return http.StatusServiceUnavailable
	default:
		if status, ok := videoStatusFor(err); ok {
			return status
		}
		return http.StatusBadGateway
	}
}

// ServeHTTP exposes the PSP's own API shape, making interposition
// transparent to applications: POST /upload and GET /photo/{id}?… behave
// exactly like the PSP, except photos are split on the way up and
// reconstructed on the way down. POST /video/upload and GET
// /video/{id}[?frame=N] do the same for P3MJ clips (see serveVideoHTTP).
// POST /calibrate[?force=1] runs one calibration pass (503 + Retry-After
// while one is already in flight); GET /stats exposes the serving-layer
// counters as JSON, and
// GET /metrics serves the proxy's metrics registry (every series registered
// in it: proxy, cache and calibration, plus whatever the layers built
// around the proxy export there) as Prometheus-style text exposition.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.admission != nil {
		// The admission layer keys its buckets and storm rates by client;
		// derive the identity once here and carry it in the context.
		r = r.WithContext(admission.WithClient(r.Context(),
			admission.ClientKey(r.Header.Get(admission.ClientKeyHeader), r.RemoteAddr)))
	}
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/upload":
		body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil {
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		id, err := p.Upload(r.Context(), body)
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/photo/"):
		id := strings.TrimPrefix(r.URL.Path, "/photo/")
		jpegBytes, err := p.Download(r.Context(), id, r.URL.Query())
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "image/jpeg")
		w.Write(jpegBytes)
	case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/photo/"):
		id := strings.TrimPrefix(r.URL.Path, "/photo/")
		if err := p.Delete(r.Context(), id); err != nil {
			httpError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/similar/"):
		id := strings.TrimPrefix(r.URL.Path, "/similar/")
		out, err := p.serveSimilarHTTP(r.Context(), id, r.URL.Query().Get("d"))
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	case strings.HasPrefix(r.URL.Path, "/video/"):
		p.serveVideoHTTP(w, r)
	case r.Method == http.MethodPost && r.URL.Path == "/calibrate":
		// force=1 skips the probe and always runs the full sweep + flip.
		out, err := p.Recalibrate(r.Context(), r.URL.Query().Get("force") != "")
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"epoch":      out.Epoch,
			"psnr_db":    out.Result.PSNR,
			"mse":        out.Result.MSE,
			"full_sweep": out.FullSweep,
			"flipped":    out.Flipped,
			"warmed":     out.Warmed,
		})
	case r.Method == http.MethodGet && r.URL.Path == "/stats":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p.Stats())
	case r.Method == http.MethodGet && r.URL.Path == "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := p.reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	default:
		http.NotFound(w, r)
	}
}
