// Command p3proxy runs the client-side trusted proxy against a PSP and a
// blob store. Applications point their photo traffic at the proxy and use
// the PSP's own API; uploads are split and encrypted, downloads are
// reconstructed, transparently.
//
//	p3proxy -addr :9090 -psp http://localhost:8080 -store http://localhost:8081 -key p3.key
//
// The -store flag accepts an HTTP blob store (http://...), a local
// directory (disk:/path), or a comma-separated list of either, which is
// served as one consistent-hash store keeping -replicas full copies of
// each blob (the 1-of-r scheme):
//
//	p3proxy -store disk:/mnt/a,disk:/mnt/b,http://nas:8081/blobs -replicas 2
//
// Prefixing the list with erasure: Reed-Solomon stripes each secret part
// into k data + (n-k) parity shares on n distinct shards instead, so any
// n-k shards can die with zero data loss at n/k× storage (1.5× for the
// default 4-of-6 scheme, versus 3× for 3 replicas):
//
//	p3proxy -store erasure:k=4,n=6,disk:/mnt/a,disk:/mnt/b,disk:/mnt/c,disk:/mnt/d,disk:/mnt/e,disk:/mnt/f
//
// (-replicas above 1 is refused with an erasure: spec — its redundancy is
// the k-of-n scheme.) Both layouts are the same store: every share or
// replica is checksummed, writes that miss a down shard park as hints
// until it revives, and a background scrubber (-scrub-interval)
// re-encodes missing or corrupt shares onto their shards. A replicated
// list written by earlier releases, which kept whole blobs under the bare
// photo id, still reads: each such blob is rewritten into share slots the
// first time it is read.
//
// Besides photos, the proxy serves P3MJ video clips (§4.2) end to end:
// POST /video/upload splits every frame and stores both parts in the blob
// store; GET /video/{id} joins the clip back, and GET /video/{id}?frame=N
// seeks a single frame as a JPEG (`-video-max-bytes` bounds accepted clip
// uploads). Build clips from JPEG frames with `p3 pack`.
//
// Calibration (§4.1) runs once at startup; -recalibrate-interval re-checks
// it periodically in the background with a cheap one-photo probe, running
// the full sweep only when the PSP's pipeline actually changed. Downloads
// keep serving the previous calibration epoch while a pass is in flight,
// and after an epoch flip the -warm-topk hottest variants are
// re-reconstructed before traffic finds them cold. POST /calibrate
// triggers a pass on demand (?force=1 skips the probe); a second request
// while one is running gets 503 + Retry-After.
//
// -max-inflight N turns on admission control (internal/admission): at
// most N requests execute at once, the rest wait in per-cost-class
// priority queues (cached-hit downloads ahead of cold reconstructions
// ahead of calibrations) bounded by -queue-depth, and a request that
// finds its queue full is shed with 503 + Retry-After. -storm-clamp F
// adds an online storm detector: while a request storm is on, it clamps
// any client (keyed by the X-P3-Client header, or the remote address)
// running past F times its fair share; it needs no per-client
// configuration, and it is off when F is 0, the default. The /metrics
// and /stats endpoints expose the p3_admission_* series when admission
// is on.
//
// Serving-layer cache budgets are tunable (-secret-cache-bytes,
// -variant-cache-bytes). The proxy is fully instrumented: GET /stats
// reports cache hit/miss/coalesce/eviction counters plus per-operation
// request/error counts and latency percentiles as JSON, and GET /metrics
// serves Prometheus-style text exposition covering the proxy operations,
// all three caches, the codec's split/join timings, and — when -store
// names several backends — each shard's read/repair/failure counters
// (naming scheme in ARCHITECTURE.md). `go run ./cmd/p3load` runs fault
// drills against this same stack, built by the same code.
//
// The process is flags → stack.Config → stack.Build → serve: every flag
// but -addr and -key is a field of internal/stack's Config, which assembles
// the whole stack and tears it down again. The listener is an http.Server
// with header-read and idle timeouts (no write timeout: a forced
// calibration or a whole-clip join legitimately runs for minutes). SIGINT
// or SIGTERM stops it accepting, lets in-flight requests finish for up to
// 30 s (an upload is never cut between the PSP put and the secret put),
// then closes the stack — recalibration loop, similarity workers, scrub
// daemon — and exits 0. A second signal during the drain ends the process
// at once.
//
// Generate the shared key with `p3 keygen`; every authorized recipient's
// proxy must be started with the same key file.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"p3"
	"p3/internal/stack"
)

const (
	// readHeaderTimeout and idleTimeout bound what a slow or silent peer can
	// hold open. There is deliberately no WriteTimeout: a forced calibration
	// or a whole-clip join legitimately runs for minutes.
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	// drainTimeout is how long a shutdown waits for in-flight requests —
	// one backend request timeout at its default, so an upload between its
	// PSP put and its secret put gets to finish.
	drainTimeout = 30 * time.Second
	// calibrateTimeout bounds the start-up calibration sweep.
	calibrateTimeout = 5 * time.Minute
)

// registerFlags declares p3proxy's flags on fs, bound directly to the
// fields of cfg (whose current values become the flag defaults), plus the
// two that are not stack configuration: the listen address and the key
// file path.
func registerFlags(fs *flag.FlagSet, cfg *stack.Config) (addr, keyPath *string) {
	addr = fs.String("addr", ":9090", "proxy listen address")
	keyPath = fs.String("key", "p3.key", "hex key file (see `p3 keygen`)")
	fs.StringVar(&cfg.PSP, "psp", cfg.PSP, "PSP base URL")
	fs.StringVar(&cfg.Store, "store", cfg.Store,
		"blob store(s): http(s)://... or disk:/path, comma-separated for sharding, erasure:k=4,n=6,... for erasure coding; "+
			"a replicated store owns its shards: it migrates a key there that is not one of its shares as a pre-merge record and removes it")
	fs.IntVar(&cfg.Replicas, "replicas", cfg.Replicas, "copies of each secret part across shards")
	fs.DurationVar(&cfg.ScrubInterval, "scrub-interval", cfg.ScrubInterval,
		"multi-store -store: period of the background repair scrubber (0 disables)")
	fs.IntVar(&cfg.Threshold, "t", cfg.Threshold, "splitting threshold T")
	fs.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout, "PSP and blob store request timeout")
	fs.Int64Var(&cfg.SecretCacheBytes, "secret-cache-bytes", cfg.SecretCacheBytes,
		"secret-part cache budget in bytes")
	fs.Int64Var(&cfg.VariantCacheBytes, "variant-cache-bytes", cfg.VariantCacheBytes,
		"reconstructed-variant cache budget in bytes")
	fs.Int64Var(&cfg.VideoMaxBytes, "video-max-bytes", cfg.VideoMaxBytes,
		"largest accepted video clip upload in bytes")
	fs.DurationVar(&cfg.RecalibrateInterval, "recalibrate-interval", cfg.RecalibrateInterval,
		"re-verify the calibration every interval in the background (probe first, full sweep only on mismatch; 0 disables)")
	fs.IntVar(&cfg.WarmTopK, "warm-topk", cfg.WarmTopK,
		"hottest variants to pre-warm after a calibration epoch flip (0 disables)")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", cfg.MaxInflight,
		"admission control: concurrent requests the proxy serves, queueing the rest (0 disables admission entirely)")
	fs.IntVar(&cfg.QueueDepth, "queue-depth", cfg.QueueDepth,
		"admission control: bounded queue depth per cost class (0 = default)")
	fs.Float64Var(&cfg.StormClamp, "storm-clamp", cfg.StormClamp,
		"admission control: during a detected request storm, shed clients over this multiple of their fair share (0 disables the storm detector)")
	fs.BoolVar(&cfg.Dedup, "dedup", cfg.Dedup,
		"content-addressed dedup of public parts: identical uploads share one PSP blob (refcounted; DELETE /photo/{id} drops a reference)")
	fs.BoolVar(&cfg.Similarity, "similarity", cfg.Similarity,
		"perceptual-hash index over public parts, served on GET /similar/{id}?d=N")
	fs.IntVar(&cfg.SimilarityWorkers, "similarity-workers", cfg.SimilarityWorkers,
		"background hash workers feeding the similarity index")
	return addr, keyPath
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "p3proxy: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("p3proxy", flag.ExitOnError)
	cfg := stack.DefaultConfig()
	addr, keyPath := registerFlags(fs, &cfg)
	fs.Parse(args)

	keyData, err := os.ReadFile(*keyPath)
	if err != nil {
		return err
	}
	if cfg.Key, err = p3.ParseKey(string(keyData)); err != nil {
		return fmt.Errorf("key file %s: %w", *keyPath, err)
	}
	st, err := stack.Build(cfg)
	if err != nil {
		return err
	}
	defer st.Close()
	describe(cfg, st)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("p3proxy: calibrating against %s ...\n", cfg.PSP)
	calCtx, cancel := context.WithTimeout(ctx, calibrateTimeout)
	res, err := st.Proxy.Calibrate(calCtx)
	cancel()
	if ctx.Err() != nil {
		return nil // asked to stop before serving began
	}
	if err != nil {
		return fmt.Errorf("calibration failed: %w", err)
	}
	fmt.Printf("p3proxy: calibrated pipeline %s (match %.1f dB)\n", res.Op, res.PSNR)
	fmt.Printf("p3proxy: listening on %s (T=%d, secret cache %d MiB, variant cache %d MiB)\n",
		*addr, cfg.Threshold, cfg.SecretCacheBytes>>20, cfg.VariantCacheBytes>>20)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           st.Proxy,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	if err := serve(ctx, stop, srv); err != nil {
		return err
	}
	st.Close()
	fmt.Println("p3proxy: stopped")
	return nil
}

// describe prints which optional layers the built stack carries.
func describe(cfg stack.Config, st *stack.Stack) {
	if store, ok := st.Store.(*p3.ErasureSecretStore); ok {
		if k, n := store.Scheme(); k == 1 {
			fmt.Printf("p3proxy: replicating secret parts over %d stores (%d replicas, scrub every %s)\n",
				store.Shards(), n, cfg.ScrubInterval)
		} else {
			fmt.Printf("p3proxy: erasure coding secret parts %d-of-%d over %d stores (scrub every %s)\n",
				k, n, store.Shards(), cfg.ScrubInterval)
		}
	}
	if st.Admission != nil {
		fmt.Printf("p3proxy: admission control on (max-inflight %d, queue depth %d, storm clamp %g)\n",
			cfg.MaxInflight, cfg.QueueDepth, cfg.StormClamp)
	}
	if st.Dedup != nil {
		fmt.Println("p3proxy: content-addressed dedup of public parts on")
	}
	if st.Similarity != nil {
		fmt.Printf("p3proxy: similarity index on (%d hash workers, GET /similar/{id}?d=N)\n", cfg.SimilarityWorkers)
	}
	if cfg.RecalibrateInterval > 0 {
		fmt.Printf("p3proxy: recalibrating every %s in the background (pre-warming top %d variants on epoch flips)\n",
			cfg.RecalibrateInterval, cfg.WarmTopK)
	}
}

// serve runs srv until it fails or ctx is cancelled (main: SIGINT/SIGTERM).
// On cancellation it stops accepting and waits up to drainTimeout for
// in-flight requests to finish, so the caller closes the stack only once
// nothing is running against it. stop releases whatever cancelled ctx; main
// passes signal.NotifyContext's, so from the moment the drain begins the
// signals are back to their default disposition and a second one ends the
// process instead of being swallowed for the length of the drain.
func serve(ctx context.Context, stop context.CancelFunc, srv *http.Server) error {
	failed := make(chan error, 1)
	go func() { failed <- srv.ListenAndServe() }()
	select {
	case err := <-failed:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("p3proxy: shutting down (draining in-flight requests)")
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		// Stragglers past the deadline are cut; the stack still closes.
		fmt.Fprintf(os.Stderr, "p3proxy: drain: %v\n", err)
		srv.Close()
	}
	return nil
}
