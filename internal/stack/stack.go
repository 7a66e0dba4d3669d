// Package stack assembles the paper's deployable artefact — the §4.1
// trusted proxy wired to a PSP and a secret store (Fig. 3) — in one place.
// A Config goes in, a built Stack comes out, and one Close unwinds
// everything Build started, in reverse build order.
//
// cmd/p3proxy maps its flags straight onto Config; cmd/p3load builds its
// stack through the same call, so the fault drills exercise the -store
// spec parser real operators use. Every Config field is an existing
// p3proxy flag or proxy.ProxyOption; the only extension point is
// WrapShard, which p3load uses to put a kill switch in front of each
// shard.
//
// Build order: shard backends → composite store (the scrub daemon starts
// here) → codec → admission controller → PSP client → dedup layer →
// similarity index (hash workers start here) → proxy (the background
// recalibration loop starts here). Close runs the other way: the proxy's
// loop stops first, while the index and the store it reads through are
// still live; then the index drains its workers; then the scrub daemon
// stops. Build does not calibrate — callers run Proxy.Calibrate under their
// own deadline before serving.
package stack

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"p3"
	"p3/internal/admission"
	"p3/internal/dedup"
	"p3/internal/metrics"
	"p3/internal/proxy"
	"p3/internal/similarity"
)

// Config describes one serving stack. Field comments name the p3proxy flag
// (or ProxyOption) each maps onto; values mean exactly what the flag's
// does, so DefaultConfig — the flag defaults — is the starting point, not
// the zero value.
type Config struct {
	Key       p3.Key // -key (the parsed key, not the file path)
	Threshold int    // -t

	PSP     string        // -psp: provider base URL
	Timeout time.Duration // -timeout: per PSP / HTTP blob store request

	// Store is the -store spec: one backend (disk:/path or http(s)://...), a
	// comma-separated list of them served as an ErasureSecretStore keeping
	// Replicas copies of each blob (the 1-of-Replicas scheme), or
	// "erasure:[k=K,][n=N,]<list>" served with the k-of-n scheme. Either
	// store's repair daemon runs every ScrubInterval (0 leaves repair to
	// explicit ScrubOnce calls).
	Store         string
	Replicas      int           // -replicas
	ScrubInterval time.Duration // -scrub-interval

	SecretCacheBytes    int64         // -secret-cache-bytes
	VariantCacheBytes   int64         // -variant-cache-bytes
	VideoMaxBytes       int64         // -video-max-bytes
	RecalibrateInterval time.Duration // -recalibrate-interval (0 = no background loop)
	WarmTopK            int           // -warm-topk (0 = no pre-warming)

	MaxInflight int     // -max-inflight (0 = admission off)
	QueueDepth  int     // -queue-depth
	ClientRPS   float64 // -client-rps
	StormClamp  float64 // -storm-clamp

	Dedup             bool // -dedup
	Similarity        bool // -similarity
	SimilarityWorkers int  // -similarity-workers

	// Registry is proxy.WithMetricsRegistry, applied to every layer that
	// registers series (proxy, admission, dedup, similarity). nil means
	// metrics.Default; in-process harnesses that build more than one stack
	// pass a private registry each.
	Registry *metrics.Registry

	// WrapShard, when set, wraps each leaf backend named by Store (in spec
	// order, i counting from 0) before it joins the composite store — the
	// seam a fault harness needs to fail individual shards underneath the
	// real sharded or erasure-coded store.
	WrapShard func(i int, s p3.SecretStore) p3.SecretStore
}

// DefaultConfig returns p3proxy's flag defaults. Key is left zero: there is
// no default key.
func DefaultConfig() Config {
	return Config{
		Threshold:         p3.DefaultThreshold,
		PSP:               "http://localhost:8080",
		Timeout:           p3.DefaultHTTPTimeout,
		Store:             "http://localhost:8081",
		Replicas:          1,
		ScrubInterval:     time.Minute,
		SecretCacheBytes:  proxy.DefaultSecretCacheBytes,
		VariantCacheBytes: proxy.DefaultVariantCacheBytes,
		VideoMaxBytes:     proxy.DefaultVideoMaxBytes,
		WarmTopK:          proxy.DefaultWarmTopK,
		SimilarityWorkers: 4,
	}
}

// Stack is a built serving stack. Proxy is the http.Handler to serve;
// Store is the composite secret store behind it (type-assert to
// *p3.ErasureSecretStore for its stats and scrub controls; a single
// backend is served as itself). Dedup, Similarity and Admission are nil
// unless the Config turned them on.
type Stack struct {
	Proxy      *proxy.Proxy
	Store      p3.SecretStore
	Dedup      *dedup.Store
	Similarity *similarity.Index
	Admission  *admission.Controller

	closers   []func()
	closeOnce sync.Once
}

// Build assembles the stack cfg describes. On error everything already
// started has been closed again.
func Build(cfg Config) (_ *Stack, err error) {
	s := &Stack{}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.Default
	}

	if s.Store, err = s.openStore(cfg, reg); err != nil {
		return nil, fmt.Errorf("-store: %w", err)
	}
	codec, err := p3.New(cfg.Key, p3.WithThreshold(cfg.Threshold))
	if err != nil {
		return nil, err
	}
	opts := []proxy.ProxyOption{
		proxy.WithMetricsRegistry(reg),
		proxy.WithSecretCacheBytes(cfg.SecretCacheBytes),
		proxy.WithVariantCacheBytes(cfg.VariantCacheBytes),
		proxy.WithVideoMaxBytes(cfg.VideoMaxBytes),
		proxy.WithRecalibrateInterval(cfg.RecalibrateInterval),
		proxy.WithWarmTopK(cfg.WarmTopK),
	}
	if cfg.MaxInflight > 0 {
		s.Admission, err = admission.New(admission.Config{
			MaxInflight: cfg.MaxInflight,
			QueueDepth:  cfg.QueueDepth,
			ClientRPS:   cfg.ClientRPS,
			StormClamp:  cfg.StormClamp,
		}, reg, "proxy")
		if err != nil {
			return nil, err
		}
		opts = append(opts, proxy.WithAdmission(s.Admission))
	}
	var photos p3.PhotoService = p3.NewHTTPPhotoService(cfg.PSP, p3.WithHTTPTimeout(cfg.Timeout))
	if cfg.Dedup {
		s.Dedup = dedup.New(photos, dedup.WithRegistry(reg))
		photos = s.Dedup
	}
	if cfg.Similarity {
		s.Similarity = similarity.NewIndex(
			similarity.WithRegistry(reg), similarity.WithWorkers(cfg.SimilarityWorkers))
		s.closers = append(s.closers, s.Similarity.Close)
		opts = append(opts, proxy.WithSimilarity(s.Similarity))
	}
	s.Proxy = proxy.New(codec, photos, s.Store, opts...)
	s.closers = append(s.closers, s.Proxy.Close)
	return s, nil
}

// Close stops everything Build started — the proxy's recalibration loop,
// the similarity workers, the store's scrub daemon — in reverse build
// order, waiting for each to exit. The caller must have stopped sending
// requests first (p3proxy: http.Server.Shutdown). Close is idempotent.
func (s *Stack) Close() {
	s.closeOnce.Do(func() {
		for i := len(s.closers) - 1; i >= 0; i-- {
			s.closers[i]()
		}
	})
}

// openStore turns cfg.Store into the composite SecretStore, registering
// whatever it starts with s. A striped store exports its per-shard
// p3_shard_* and store-wide p3_repair_* series into reg; they carry no
// proxy label, since the store is shared state.
func (s *Stack) openStore(cfg Config, reg *metrics.Registry) (p3.SecretStore, error) {
	spec, erasure := strings.CutPrefix(cfg.Store, "erasure:")
	k, n := p3.DefaultErasureK, p3.DefaultErasureN
	var shards []p3.SecretStore
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, v, ok := strings.Cut(part, "="); ok && erasure && (name == "k" || name == "n") {
			// Atoi, not Sscanf: trailing garbage ("k=4x") must not parse as 4.
			x, err := strconv.Atoi(v)
			if err != nil || x < 1 {
				return nil, fmt.Errorf("bad %s=%q (want a positive integer)", name, v)
			}
			if name == "k" {
				k = x
			} else {
				n = x
			}
			continue
		}
		backend, err := openBackend(part, cfg.Timeout)
		if err != nil {
			return nil, err
		}
		if cfg.WrapShard != nil {
			backend = cfg.WrapShard(len(shards), backend)
		}
		shards = append(shards, backend)
	}
	var scheme p3.ErasureOption
	switch {
	case erasure:
		if cfg.Replicas > 1 {
			return nil, fmt.Errorf("-replicas %d contradicts an erasure: spec (redundancy comes from the k-of-n scheme)", cfg.Replicas)
		}
		scheme = p3.WithErasureScheme(k, n)
	case len(shards) == 0:
		return nil, fmt.Errorf("no stores in %q", cfg.Store)
	case len(shards) == 1:
		if cfg.Replicas > 1 {
			return nil, fmt.Errorf("-replicas %d needs at least %d stores", cfg.Replicas, cfg.Replicas)
		}
		return shards[0], nil
	default:
		scheme = p3.WithShardReplicas(cfg.Replicas)
	}
	es, err := p3.NewErasureSecretStore(shards, scheme, p3.WithScrubInterval(cfg.ScrubInterval))
	if err != nil {
		return nil, err
	}
	// Close only stops the daemon; it has no failure to report.
	s.closers = append(s.closers, func() { es.Close() })
	for i := range es.Shards() {
		metrics.Export(reg, "p3_shard", func() (st p3.ShardStats) {
			if all := es.ShardStats(); i < len(all) { // a Rebalance may have shrunk the list
				st = all[i]
			}
			return st
		}, metrics.Label{Key: "shard", Value: strconv.Itoa(i)})
	}
	metrics.Export(reg, "p3_repair", es.RepairStats)
	return es, nil
}

// openBackend turns one -store list element into a SecretStore.
func openBackend(part string, timeout time.Duration) (p3.SecretStore, error) {
	switch {
	case strings.HasPrefix(part, "disk:"):
		return p3.NewDiskSecretStore(strings.TrimPrefix(part, "disk:"))
	case strings.HasPrefix(part, "http://"), strings.HasPrefix(part, "https://"):
		return p3.NewHTTPSecretStore(part, p3.WithHTTPTimeout(timeout)), nil
	default:
		return nil, fmt.Errorf("unrecognized store %q (want http(s)://... or disk:/path)", part)
	}
}
