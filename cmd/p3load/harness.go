package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"p3"
	"p3/internal/admission"
	"p3/internal/dataset"
	"p3/internal/jpegx"
	"p3/internal/metrics"
	"p3/internal/proxy"
	"p3/internal/psp"
	"p3/internal/stack"
	"p3/internal/trace"
)

// shardBackend is what a shard under the composite store offers; the disk
// shards the harness creates implement all of it.
type shardBackend interface {
	p3.SecretStore
	p3.SecretDeleter
	p3.SecretLister // the inventory walk the erasure store's scrubber relies on
}

// faultyStore wraps a shard with a kill switch for the shard outage: while
// down, every operation fails with a non-NotFound error, so the composite
// store treats it as an unreachable slot (degraded read, hinted write,
// repair later), not a missing share — and as unlistable, exactly like a
// real outage.
type faultyStore struct {
	inner shardBackend
	down  atomic.Bool
}

var errShardDown = errors.New("p3load: shard down (injected fault)")

func (f *faultyStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	if f.down.Load() {
		return errShardDown
	}
	return f.inner.PutSecret(ctx, id, blob)
}

func (f *faultyStore) GetSecret(ctx context.Context, id string) ([]byte, error) {
	if f.down.Load() {
		return nil, errShardDown
	}
	return f.inner.GetSecret(ctx, id)
}

func (f *faultyStore) DeleteSecret(ctx context.Context, id string) error {
	if f.down.Load() {
		return errShardDown
	}
	return f.inner.DeleteSecret(ctx, id)
}

func (f *faultyStore) ListSecrets(ctx context.Context) ([]string, error) {
	if f.down.Load() {
		return nil, errShardDown
	}
	return f.inner.ListSecrets(ctx)
}

// harness is one run's state: the stack under test, the in-process PSP and
// the disk shards behind it, the corpora, and the recorders.
type harness struct {
	sc scenario

	pspSrv    *httptest.Server
	shardRoot string
	faults    []*faultyStore // one per shard, in spec order
	st        *stack.Stack
	px        *proxy.Proxy

	jpegPool [][]byte // pre-encoded upload payloads
	clipPool [][]byte // pre-packed upload clips
	pop      corpus[photoRef]
	vpop     corpus[clipRef]

	recorder   *trace.Recorder // non-nil with -trace-record
	started    time.Time
	stormSince atomic.Int64 // offset from started at which the storm window opened; 0 = closed

	recs                                 [numOps]opRecorder
	recalRec                             opRecorder
	victimSteady, victimStorm, attackRec opRecorder
	recalFlips, attackerShed             atomic.Uint64
}

// newHarness boots the PSP simulator and disk shards, builds the stack the
// row describes through stack.Build, and calibrates it.
func newHarness(sc scenario) (_ *harness, err error) {
	h := &harness{sc: sc}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	h.pspSrv = httptest.NewServer(psp.NewServer(psp.FacebookLike()))
	if h.shardRoot, err = os.MkdirTemp("", "p3load-shards-"); err != nil {
		return nil, err
	}

	cfg := stack.DefaultConfig()
	if cfg.Key, err = p3.NewKey(); err != nil {
		return nil, err
	}
	cfg.PSP = h.pspSrv.URL
	dirs := make([]string, sc.shardCount())
	for i := range dirs {
		dirs[i] = "disk:" + filepath.Join(h.shardRoot, fmt.Sprintf("shard%d", i))
	}
	cfg.Store, cfg.Replicas, cfg.ScrubInterval = strings.Join(dirs, ","), sc.replicas, sc.scrubInterval
	if sc.erasure {
		cfg.Store = fmt.Sprintf("erasure:k=%d,n=%d,%s", p3.DefaultErasureK, p3.DefaultErasureN, cfg.Store)
		cfg.Replicas = 1
	}
	if sc.coldSecrets {
		cfg.SecretCacheBytes = 1
	}
	cfg.MaxInflight, cfg.QueueDepth, cfg.StormClamp = sc.maxInflight, sc.queueDepth, sc.stormClamp
	// The similarity index rides along with dedup: near-dup clustering is
	// half of that drill.
	cfg.Dedup, cfg.Similarity = sc.dedup, sc.dedup || sc.mix[opSimilar] > 0
	// A private registry keeps repeated in-process runs (tests) from
	// colliding on metrics.Default.
	cfg.Registry = metrics.NewRegistry()
	cfg.WrapShard = func(_ int, s p3.SecretStore) p3.SecretStore {
		f := &faultyStore{inner: s.(shardBackend)}
		h.faults = append(h.faults, f)
		return f
	}
	if h.st, err = stack.Build(cfg); err != nil {
		return nil, err
	}
	h.px = h.st.Proxy
	if _, err := h.px.Calibrate(context.Background()); err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	fmt.Printf("p3load: stack up behind %s: -store %s\n", h.pspSrv.URL, cfg.Store)
	return h, nil
}

// close tears down the stack first (its loops talk to the PSP and the
// shards), then the PSP, then the shard directories.
func (h *harness) close() {
	if h.st != nil {
		h.st.Close()
	}
	h.pspSrv.Close()
	os.RemoveAll(h.shardRoot)
}

func encodeJPEG(img *jpegx.PlanarImage, quality int) ([]byte, error) {
	coeffs, err := img.ToCoeffs(quality, jpegx.Sub420)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// populate builds the upload pools and pre-populates the corpora through
// the proxy.
func (h *harness) populate() error {
	sc, ctx := &h.sc, context.Background()
	fmt.Printf("p3load: populating %d photos and %d clips through the proxy\n", sc.photos, sc.clips)
	// A few source sizes so upload cost and variant geometry vary; all large
	// enough that the workload's crops stay in-bounds. With dupUnique set,
	// each base image is also present as a near-duplicate re-encode (same
	// pixels, different JPEG bytes): uploads are many-way duplicates (the
	// dedup hit path) while the re-encodes keep the similarity index honest
	// (distinct content hashes, tiny hamming distance).
	dims := []struct{ w, h int }{{512, 384}, {448, 336}, {400, 300}}
	images, qualities := len(dims), []int{90}
	if sc.dupUnique > 0 {
		images, qualities = sc.dupUnique, []int{90, 84}
	}
	for i := 0; i < images; i++ {
		img := dataset.Natural(int64(1000+i), dims[i%len(dims)].w, dims[i%len(dims)].h)
		for _, q := range qualities {
			enc, err := encodeJPEG(img, q)
			if err != nil {
				return err
			}
			h.jpegPool = append(h.jpegPool, enc)
		}
	}
	for i := 0; i < sc.photos; i++ {
		pi := i % len(h.jpegPool)
		id, err := h.px.Upload(ctx, h.jpegPool[pi])
		if err != nil {
			return fmt.Errorf("pre-populating corpus: %w", err)
		}
		h.pop.add(photoRef{id, pi})
	}
	if sc.clips == 0 { // no video row, and no replayed trace asking for clips
		return nil
	}
	// The clip pool's frame counts spread across [clipFramesMin,
	// clipFramesMax]; frames are small so clip cost is dominated by frame
	// count, like real short-form video mixes.
	for pi, frames := range []int{sc.clipFramesMin, (sc.clipFramesMin + sc.clipFramesMax) / 2, sc.clipFramesMax} {
		jpegs := make([][]byte, frames)
		for f := range jpegs {
			var err error
			if jpegs[f], err = encodeJPEG(dataset.Natural(int64(2000+100*pi+f), 160, 120), 88); err != nil {
				return err
			}
		}
		clip, err := p3.PackMJPEG(jpegs)
		if err != nil {
			return err
		}
		h.clipPool = append(h.clipPool, clip)
	}
	for i := 0; i < sc.clips; i++ {
		id, frames, err := h.px.UploadVideo(ctx, h.clipPool[i%len(h.clipPool)])
		if err != nil {
			return fmt.Errorf("pre-populating video corpus: %w", err)
		}
		h.vpop.add(clipRef{id, frames})
	}
	return nil
}

// runTimeline is the fault scheduler: it injects the row's faults in order
// until the timeline is exhausted or stop closes. Offsets are wall-clock
// from the run start, so a slow injection (a forced recalibration sharing
// the CPU with the workload) delays but never starves the entries behind it.
func (h *harness) runTimeline(stop <-chan struct{}) {
	for _, f := range h.sc.faults {
		at := time.Duration(f.at * float64(h.sc.duration))
		if wait := at - time.Since(h.started); wait > 0 {
			select {
			case <-time.After(wait):
			case <-stop:
				return
			}
		}
		fmt.Printf("p3load: !! %s at +%v\n", f.do, time.Since(h.started).Round(time.Millisecond))
		h.inject(f.do)
	}
}

func (h *harness) inject(k faultKind) {
	switch k {
	case killShards, reviveShards:
		for _, f := range h.faults[:h.sc.killShards] {
			f.down.Store(k == killShards)
		}
	case stormOn:
		h.stormSince.Store(int64(time.Since(h.started)))
	case stormOff:
		h.stormSince.Store(0)
	case recalibrate:
		start := time.Now()
		out, err := h.px.Recalibrate(context.Background(), true)
		h.recalRec.record(time.Since(start), err)
		if err != nil {
			fmt.Printf("p3load: !! forced recalibration failed: %v\n", err)
			return
		}
		if out.Flipped {
			h.recalFlips.Add(1)
		}
		fmt.Printf("p3load: !! recalibrated: epoch %d, warmed %d variants (%v)\n",
			out.Epoch, out.Warmed, time.Since(start).Round(time.Millisecond))
	}
}

// drive runs the arrival process (the row's driver, or the replay of a
// recorded trace) with the fault scheduler beside it and the trace recorder,
// if asked for, tapping it.
func (h *harness) drive(replay *trace.Log) error {
	sc := &h.sc
	if sc.traceRecord != "" {
		h.recorder = trace.NewRecorder(trace.Header{
			Scenario: sc.name,
			Seed:     sc.seed,
			Photos:   sc.photos,
			Videos:   sc.clips,
			Note:     "recorded by p3load -trace-record",
		})
	}
	stop, scheduled := make(chan struct{}), make(chan struct{})
	h.started = time.Now()
	go func() {
		defer close(scheduled)
		h.runTimeline(stop)
	}()
	var err error
	if replay != nil {
		err = h.driveReplay(replay)
	} else {
		drivers[sc.driver](h)
	}
	close(stop)
	<-scheduled
	fmt.Printf("p3load: run over at +%v\n", time.Since(h.started).Round(time.Millisecond))
	if err == nil && h.recorder != nil {
		if err = h.recorder.WriteFile(sc.traceRecord); err == nil {
			fmt.Printf("p3load: recorded %d events to %s\n", h.recorder.Len(), sc.traceRecord)
		}
	}
	return err
}

// verify is the post-run half of the drills — repair convergence, the
// corpus walk, the dedup refcount audit — and fills the result the gates judge.
func (h *harness) verify() (*result, error) {
	ctx := context.Background()
	res := &result{recalsWanted: h.sc.count(recalibrate), recalFlips: h.recalFlips.Load()}
	for k := range res.ops {
		res.ops[k] = h.recs[k].report()
		res.opErrors += res.ops[k].Errors
	}
	res.opErrors += h.recalRec.errs.Load()
	res.warmHits = h.px.Stats().Calibration.WarmHits
	if h.sc.driver == "storm" {
		res.storm = &stormResult{
			victimSteady: h.victimSteady.report(),
			victimStorm:  h.victimStorm.report(),
			attacker:     h.attackRec.report(),
			attackerShed: h.attackerShed.Load(),
			stormSheds:   h.st.Admission.Stats().ShedByReason[admission.ReasonStorm],
		}
	}
	ec, _ := h.st.Store.(*p3.ErasureSecretStore)
	if ec != nil {
		// Drive explicit scrub passes until one finds nothing left to fix
		// (the daemon may have done most of the work mid-run already).
		repairStart := time.Now()
		res.scrubPending = true
		for pass := 0; pass < maxScrubPasses && res.scrubPending; pass++ {
			rep, err := ec.ScrubOnce(ctx)
			if err != nil {
				return nil, fmt.Errorf("post-run scrub: %w", err)
			}
			res.scrubPending = rep.SharesMissing+rep.SharesCorrupt+rep.SharesRepaired+
				rep.SharesRemoved+rep.TombstonesPropagated+rep.HintsDrained > 0
		}
		if res.scrubPending {
			fmt.Printf("p3load: !! post-run scrub still repairing after %d passes\n", maxScrubPasses)
		} else {
			fmt.Printf("p3load: post-run scrub converged in %.2fs\n", time.Since(repairStart).Seconds())
		}
	}
	if ix := h.st.Similarity; ix != nil {
		ix.Flush()
	}
	if ec != nil || h.st.Dedup != nil {
		h.verifyCorpus(ctx, res)
	}
	if d := h.st.Dedup; d != nil {
		// The dedup scrub audits the refcount invariants (refs match the
		// live ID set, nothing negative).
		scrub, err := d.Scrub(ctx)
		if err != nil {
			return nil, fmt.Errorf("dedup scrub: %w", err)
		}
		res.dedup = &dedupResult{stats: d.Stats(), scrub: scrub}
	}
	return res, nil
}

// verifyCorpus re-downloads every photo full-size through cold caches. Each
// must still be there (zero data loss after the outage), and all IDs minted
// from one pool payload must serve byte-identical bytes — behind dedup they
// share one PSP blob, and that sharing must be invisible to the application.
func (h *harness) verifyCorpus(ctx context.Context, res *result) {
	h.px.InvalidateCaches()
	first := map[int][]byte{}
	for _, ref := range h.pop.snapshot() {
		res.verified++
		got, err := h.px.Download(ctx, ref.id, url.Values{})
		switch {
		case err != nil:
			res.lost++
			fmt.Printf("p3load: !! data loss: %s: %v\n", ref.id, err)
		case first[ref.payload] == nil:
			first[ref.payload] = got
		case !bytes.Equal(first[ref.payload], got):
			res.mismatches++
			fmt.Printf("p3load: !! %s differs from its content group\n", ref.id)
		}
	}
	fmt.Printf("p3load: verified %d/%d corpus photos intact, %d content-group mismatches\n",
		res.verified-res.lost, res.verified, res.mismatches)
}
