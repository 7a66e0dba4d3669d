// Photoshare: the paper's full system (Fig. 3) on localhost — a
// Facebook-like PSP, a sharded Dropbox-like blob store, and
// sender/recipient proxies. The sender's app uploads through its proxy;
// the recipient's app downloads a resized variant through its own proxy,
// which reverse-engineered the PSP pipeline by calibration and
// reconstructs per Eq. (2).
//
// Secret parts are spread over three local disk shards with 2-way
// replication (consistent hashing + read-repair), and each proxy serves
// repeat views from its bounded caches — the same serving layer
// `p3proxy -store disk:a,disk:b,disk:c -replicas 2` runs in production.
//
//	go run ./examples/photoshare
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"p3"
	"p3/internal/dataset"
	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/metrics"
	"p3/internal/proxy"
	"p3/internal/psp"
	"p3/internal/vision"
)

func main() {
	ctx := context.Background()

	// Infrastructure: an untrusted PSP with a hidden pipeline, and an
	// untrusted blob store — here three disk shards with 2-way replication.
	pspServer := psp.NewServer(psp.FacebookLike())
	pspSrv := httptest.NewServer(pspServer)
	defer pspSrv.Close()
	fmt.Printf("PSP (Facebook-like, hidden pipeline) at %s\n", pspSrv.URL)

	shardRoot, err := os.MkdirTemp("", "photoshare-shards-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(shardRoot)
	var shards []p3.SecretStore
	for i := 0; i < 3; i++ {
		s, err := p3.NewDiskSecretStore(filepath.Join(shardRoot, fmt.Sprintf("shard%d", i)))
		if err != nil {
			log.Fatal(err)
		}
		shards = append(shards, s)
	}
	store, err := p3.NewShardedSecretStore(shards, p3.WithShardReplicas(2))
	if err != nil {
		log.Fatal(err)
	}
	_, replicas := store.Scheme()
	fmt.Printf("blob store: %d disk shards under %s, %d replicas per secret part\n",
		store.Shards(), shardRoot, replicas)

	// Alice and Bob share a key out of band; each runs a local proxy built
	// over the public backend interfaces.
	key, err := p3.NewKey()
	if err != nil {
		log.Fatal(err)
	}
	newProxy := func(name string) *proxy.Proxy {
		codec, err := p3.New(key)
		if err != nil {
			log.Fatal(err)
		}
		return proxy.New(codec,
			p3.NewHTTPPhotoService(pspSrv.URL),
			store,
			// Both proxies share the default metrics registry; distinct
			// instance names keep their series apart in the snapshot below.
			proxy.WithMetricsName(name),
			proxy.WithSecretCacheBytes(16<<20),
			proxy.WithVariantCacheBytes(16<<20))
	}
	alice, bob := newProxy("alice"), newProxy("bob")

	// Bob's proxy calibrates once: upload a probe, download the PSP's
	// version, sweep the candidate-pipeline grid (§4.1).
	res, err := bob.Calibrate(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Bob's proxy calibrated the PSP pipeline: %s (match %.1f dB)\n", res.Op, res.PSNR)

	// Alice photographs and uploads through her proxy.
	photo := dataset.Natural(99, 640, 480)
	coeffs, err := photo.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		log.Fatal(err)
	}
	var jpegBuf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&jpegBuf, coeffs, nil); err != nil {
		log.Fatal(err)
	}
	id, err := alice.Upload(ctx, jpegBuf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Alice uploaded photo %s (%d bytes original)\n", id, jpegBuf.Len())

	// What the PSP (or a fusker) sees: the public part of the big variant.
	raw, err := http.Get(pspSrv.URL + "/photo/" + id + "?size=big")
	if err != nil {
		log.Fatal(err)
	}
	pubBytes := make([]byte, 0)
	buf := make([]byte, 32<<10)
	for {
		n, err := raw.Body.Read(buf)
		pubBytes = append(pubBytes, buf[:n]...)
		if err != nil {
			break
		}
	}
	raw.Body.Close()
	pubIm, err := jpegx.Decode(bytes.NewReader(pubBytes))
	if err != nil {
		log.Fatal(err)
	}

	// Bob's app asks his proxy for the same variant; the proxy fetches both
	// parts and reconstructs.
	rec, err := bob.DownloadPixels(ctx, id, url.Values{"size": {"big"}})
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth for comparison: the PSP's pipeline applied to the
	// original photo (what a non-P3 user would have seen).
	want := imaging.Clamp(pspServer.Pipeline.Op(rec.Width, rec.Height).Apply(coeffs.ToPlanar()))
	pubPSNR, _ := vision.PSNR(want, pubIm.ToPlanar())
	recPSNR, _ := vision.PSNR(want, rec)
	fmt.Printf("big variant %dx%d:\n", rec.Width, rec.Height)
	fmt.Printf("  what the PSP sees (public part): %5.1f dB\n", pubPSNR)
	fmt.Printf("  what Bob sees (reconstructed):   %5.1f dB\n", recPSNR)

	// Thumbnail then big: the secret part is fetched once (proxy cache),
	// and a repeat of the big variant is served entirely from the bounded
	// variant cache — zero backend traffic.
	if _, err := bob.DownloadPixels(ctx, id, url.Values{"size": {"thumb"}}); err != nil {
		log.Fatal(err)
	}
	if _, err := bob.Download(ctx, id, url.Values{"size": {"big"}}); err != nil {
		log.Fatal(err)
	}
	if _, err := bob.Download(ctx, id, url.Values{"size": {"big"}}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("thumbnail + big downloads reuse one cached secret part")
	st := bob.Stats()
	fmt.Printf("Bob's serving caches: secrets %d hit/%d miss (%d bytes), variants %d hit/%d miss (%d bytes)\n",
		st.Secrets.Hits, st.Secrets.Misses, st.Secrets.Bytes,
		st.Variants.Hits, st.Variants.Misses, st.Variants.Bytes)

	// Shard distribution: each replica pair landed on two of the three
	// disk shards.
	for i, s := range shards {
		n, err := s.(*p3.DiskSecretStore).Len()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  shard %d holds %d sealed blobs\n", i, n)
	}

	// On exit, dump the process's metrics snapshot — the same Prometheus
	// text exposition `p3proxy` serves on GET /metrics, covering both
	// proxies' operations, caches and calibration, and the codec's
	// split/join timings (naming scheme in ARCHITECTURE.md). The per-shard
	// series are exported by internal/stack, which this hand-built pair of
	// proxies does not use; the shard listing above stands in for them.
	fmt.Println("\nmetrics snapshot (as served on GET /metrics):")
	var expo bytes.Buffer
	if err := metrics.Default.WritePrometheus(&expo); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(expo.String(), "\n"), "\n") {
		// Skip the help/type chatter and empty series so the interesting
		// counters stay readable in a terminal.
		if strings.HasPrefix(line, "#") || strings.HasSuffix(line, " 0") {
			continue
		}
		fmt.Println("  " + line)
	}
}
