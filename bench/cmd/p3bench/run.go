package main

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"p3"
	"p3/bench/recpsp"
	"p3/internal/admission"
	"p3/internal/cache"
	"p3/internal/dedup"
	"p3/internal/jpegx"
	"p3/internal/proxy"
	"p3/internal/psp"
)

const (
	numClients = 2 // closed loop, one goroutine each; the box has two cores
	setupReps  = 3 // untraced runs set up this many times and report the median

	traceSlice     = 500 * time.Millisecond // traced runs sample this often …
	traceSliceReqs = 4000                   // … this many requests per client, every other one traced

	harnessOps = 200_000 // iterations of the op loop against a no-op handler

	sideSeconds = 1.5 // length of the upload-only window that follows a window without uploads
)

// sampleVariants are the renditions of the post-window sample (indexes
// into variantTable): two stored sizes, a dynamic resize and a crop.
var sampleVariants = [...]uint8{1, 2, 4, 7}

// sampleSources is how many S-class sources the PSNR sample draws on.
const sampleSources = 4

const numStrata = int(numOps) * numClasses * numVariants

// How a traced run's window treated a request.
const (
	modeUntraced = iota
	modeTraced
	modeUnsampled
)

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool // record spans and report the per-layer metrics
	probes  int  // traced runs: multiplier of the layer probes' iteration counts, 0 = skip them
	outDir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Clients    int               `json:"clients"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Violations []string          `json:"violations,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Samples    map[string]int64  `json:"samples"` // sample count behind each percentile
	OpCounts   map[string]int64  `json:"op_counts"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// runner holds one run's inputs and state.
type runner struct {
	w       *workload
	cfg     runConfig
	codec   *p3.Codec
	sources []source
	clips   [][]byte // packed P3MJ streams
	rec     *recpsp.PSP
	refs    map[[2]int]*jpegx.PlanarImage // (source, variant) → PSP pipeline applied to the unsplit original
	cdf     []float64

	st      *stack
	pre     []*photo
	clipIDs []string

	uploadedOrig int64 // original JPEG bytes of live photos
	origMu       sync.Mutex
	storeBase    int64 // bytes the shards held before the first photo (the clips)
	pspBase      int64 // bytes the recorded PSP held before the first photo (earlier set-ups)
	res          *result
}

func parseVariant(v uint8) p3.PhotoVariant {
	q, err := url.ParseQuery(variantTable[v])
	if err != nil {
		panic(err) // the table is a constant
	}
	pv, err := p3.ParsePhotoVariant(q)
	if err != nil {
		panic(err)
	}
	return pv
}

// prepare makes the run's inputs from the seed and records the PSP: every
// source is split once and its public part ingested by the real simulator,
// with every variant the op lists can request rendered once. It also
// renders the PSNR references: the simulator's pipeline applied to the
// unsplit originals of the sample sources.
func (r *runner) prepare() error {
	var key p3.Key
	for i := range key {
		key[i] = byte(r.cfg.seed>>(8*(i%8))) ^ byte(31*i)
	}
	var err error
	if r.codec, err = p3.New(key); err != nil {
		return err
	}
	var frames [][][]byte
	if r.sources, frames, err = genCorpus(r.w, r.cfg.seed); err != nil {
		return err
	}
	for _, f := range frames {
		clip, err := p3.PackMJPEG(f)
		if err != nil {
			return err
		}
		r.clips = append(r.clips, clip)
	}
	r.cdf = zipfCDF(r.w.zipf, 0)
	r.rec = recpsp.New()
	r.refs = make(map[[2]int]*jpegx.PlanarImage)
	reference := psp.NewServer(psp.FacebookLike())
	var refMu sync.Mutex

	errs := make([]error, len(r.sources))
	parallel(len(r.sources), func(_, i int) {
		src := r.sources[i]
		var variants []p3.PhotoVariant
		switch {
		case r.w.mix[opView] > 0:
			for v := range variantTable {
				variants = append(variants, parseVariant(uint8(v)))
			}
		case src.class == classS:
			for _, v := range sampleVariants {
				variants = append(variants, parseVariant(v))
			}
		}
		out, err := r.codec.SplitBytes(src.jpeg)
		if err == nil {
			err = r.rec.Record(out.PublicJPEG, variants)
		}
		if err == nil && i < sampleSources && src.class == classS {
			var id string
			if id, err = reference.Upload(src.jpeg); err == nil {
				for _, v := range sampleVariants {
					q := parseVariant(v).Query()
					var b []byte
					var im *jpegx.CoeffImage
					if b, err = reference.Photo(id, q.Get("size"), q.Get("crop"), q.Get("w"), q.Get("h")); err != nil {
						break
					}
					if im, err = jpegx.DecodeBytes(b); err != nil {
						break
					}
					refMu.Lock()
					r.refs[[2]int{i, int(v)}] = im.ToPlanar()
					refMu.Unlock()
				}
			}
		}
		errs[i] = err
	})
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// setUp builds the stack and brings it to the state the window starts
// from: calibrated, clips and photos uploaded, caches warmed. It is the
// program's own set-up; making inputs and recording the PSP are not in it.
func (r *runner) setUp(rep int) (calibrate time.Duration, err error) {
	ctx := context.Background()
	dir := filepath.Join(r.cfg.outDir, fmt.Sprintf("tmp-%s-%d-%d", r.w.name, os.Getpid(), rep))
	if r.st, err = buildStack(r.w, r.codec, r.rec, dir); err != nil {
		return 0, err
	}
	t := time.Now()
	if _, err := r.st.proxy.Calibrate(ctx); err != nil {
		return 0, fmt.Errorf("calibrate: %w", err)
	}
	calibrate = time.Since(t)

	r.clipIDs = r.clipIDs[:0]
	for _, clip := range r.clips {
		id, _, err := r.st.proxy.UploadVideo(ctx, clip)
		if err != nil {
			return 0, fmt.Errorf("clip upload: %w", err)
		}
		r.clipIDs = append(r.clipIDs, id)
	}

	r.storeBase, r.pspBase = r.storeHeld(), r.rec.Stats().LiveBytes

	// Photos go up through the handler like any upload.
	sources := preloadSources(r.w)
	r.pre, r.uploadedOrig = make([]*photo, len(sources)), 0
	uploaders := [numClients]*client{newClient(r, 0), newClient(r, 1)}
	parallel(len(sources), func(g, i int) {
		c := uploaders[g]
		c.do(r.st.proxy, op{kind: opUpload, src: uint16(sources[i])}, nil)
		if c.failed == 0 {
			r.pre[i] = c.own[len(c.own)-1]
		}
	})
	for _, c := range uploaders {
		if c.failed > 0 {
			return 0, fmt.Errorf("set-up upload: %s", c.firstErr)
		}
	}

	// Warm the hottest photos' variants, least popular first so the LRU
	// order matches popularity.
	warm := r.w.warm
	if warm < 0 || warm > len(r.pre) {
		warm = len(r.pre)
	}
	warmers := [numClients]*client{newClient(r, 0), newClient(r, 1)}
	parallel(warm*numVariants, func(g, i int) {
		k := warm*numVariants - 1 - i
		c := warmers[g]
		c.do(r.st.proxy, op{kind: opView, photo: int16(k / numVariants), variant: uint8(k % numVariants)}, nil)
	})
	for _, c := range warmers {
		if c.failed > 0 {
			return 0, fmt.Errorf("warm-up: %s", c.firstErr)
		}
	}
	return calibrate, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runWorkload executes one row end to end and returns everything measured.
func runWorkload(w *workload, cfg runConfig) (*result, error) {
	res := &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced, Clients: numClients,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		Metrics: map[string]metric{}, Samples: map[string]int64{}, OpCounts: map[string]int64{},
	}
	r := &runner{w: w, cfg: cfg, res: res}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	t := time.Now()
	if err := r.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	res.set("harness.prepare_s", time.Since(t).Seconds(), "s")

	// Set-up, several times over the same recorded PSP; the last stack
	// stays up for the window. A traced run reports no set-up time and
	// sets up once.
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	var setups, calibrations []float64
	for rep := 0; rep < reps; rep++ {
		if r.st != nil {
			r.st.close()
		}
		t := time.Now()
		cal, err := r.setUp(rep)
		if err != nil {
			if r.st != nil {
				r.st.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		calibrations = append(calibrations, float64(cal)/1e6)
	}
	defer r.st.close()
	res.set("setup_s", median(setups), "s")
	res.set("proxy.calibrate_ms", median(calibrations), "ms")

	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(r, i)
		clients[i].ops = genOps(w, cfg.seed, i)
	}
	res.set("harness.self_us_per_op", harnessSelf(r), "us")

	// The measured window.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n0, gc0, cpu0 := r.counters(), gcCPUSeconds(), cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.window(r.st.proxy, start, time.Duration(cfg.seconds*float64(time.Second)), cfg.traced)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	gc1, n1 := gcCPUSeconds(), r.counters()
	px0, px1, psp0, psp1 := n0.proxy, n1.proxy, n0.psp, n1.psp
	runtime.ReadMemStats(&m1)

	var lat [numOps]latencies
	for _, c := range clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.firstErr != "" {
			res.violate("client %d: %s", c.idx, c.firstErr)
		}
		for k := range lat {
			lat[k].merge(c.lat[k])
		}
	}
	ok := res.Attempted - res.Failed
	for k := range lat {
		res.OpCounts[opNames[k]] = lat[k].n
	}

	res.set("ops_per_s", float64(ok)/wall.Seconds(), "1/s")
	res.set("cpu_ms_per_op", float64(cpu)/1e6/float64(max(ok, 1)), "ms")

	// Every workload reports every end-to-end metric. A window without
	// uploads is followed by a short one of nothing else, over the photos
	// set-up uploaded; a window without views takes its download latency
	// from the cold single-client downloads of the post-window pass.
	held := r.storeHeld() - r.storeBase + r.rec.Stats().LiveBytes - r.pspBase
	res.set("storage_overhead_ratio", float64(held)/float64(max(r.uploadedOrig, 1)), "ratio")
	up, down := &lat[opUpload], &lat[opView]
	if up.n == 0 {
		up = r.sideUploads(time.Duration(min(cfg.seconds, sideSeconds) * float64(time.Second)))
	}
	sideDown := r.verify(clients)
	if down.n == 0 {
		down = sideDown
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	res.set("upload_mean_ms", ms(up.mean()), "ms")
	res.set("proxy.upload_p50_ms", ms(up.percentile(50)), "ms")
	res.set("proxy.upload_p95_ms", ms(up.percentile(95)), "ms")
	res.set("download_p50_ms", ms(down.percentile(50)), "ms")
	res.set("download_p95_ms", ms(down.percentile(95)), "ms")
	res.set("download_mean_ms", ms(down.mean()), "ms")
	res.Samples["upload"], res.Samples["download"] = up.n, down.n
	if down.n >= 1000 {
		res.set("proxy.download_p99_ms", ms(down.percentile(99)), "ms")
	}

	// Gates on the window itself.
	cacheRatio := func(a, b cache.Stats) float64 { return ratio(b.Hits-a.Hits, b.Hits-a.Hits+b.Misses-a.Misses) }
	vr := cacheRatio(px0.Variants, px1.Variants)
	if lat[opView].n > 0 && (vr < w.hitRatio[0] || vr > w.hitRatio[1]) {
		res.violate("variant hit ratio %.3f outside [%.2f, %.2f]", vr, w.hitRatio[0], w.hitRatio[1])
	}
	missRatio := ratio(uint64(psp1.Misses-psp0.Misses), uint64(psp1.Lookups-psp0.Lookups))
	if missRatio != 0 {
		res.violate("%d PSP replay misses inside the window", psp1.Misses-psp0.Misses)
	}
	if r.st.dedup != nil {
		if err := r.st.dedup.CheckInvariants(); err != nil {
			res.violate("dedup invariants: %v", err)
		}
	}

	// Layer counters over the window.
	res.set("cache.variants_hit_ratio", vr, "ratio")
	res.set("cache.secrets_hit_ratio", cacheRatio(px0.Secrets, px1.Secrets), "ratio")
	res.set("cache.dims_hit_ratio", cacheRatio(px0.Dims, px1.Dims), "ratio")
	res.set("cache.variants_coalesced", float64(px1.Variants.Coalesced-px0.Variants.Coalesced), "count")
	res.set("cache.variants_evictions", float64(px1.Variants.Evictions-px0.Variants.Evictions), "count")
	res.set("psp.replay_miss_ratio", missRatio, "ratio")
	a0, a1 := admitted(px0.Admission), admitted(px1.Admission)
	res.set("admission.admitted", float64(a1.Admitted-a0.Admitted), "count")
	res.set("admission.queued", float64(a1.Queued-a0.Queued), "count")
	res.set("admission.shed", float64(a1.Shed-a0.Shed), "count")
	d0, d1 := n0.dedup, n1.dedup
	res.set("dedup.hit_ratio", ratio(d1.DupHits-d0.DupHits, d1.Uploads-d0.Uploads), "ratio")
	res.set("dedup.bytes_saved_ratio", ratio(d1.BytesSaved-d0.BytesSaved, d1.BytesLogical-d0.BytesLogical), "ratio")
	var shardPut int64
	for _, sh := range r.st.shards {
		shardPut += sh.putBytes.Load()
	}
	res.set("store.bytes_per_secret_byte", float64(shardPut)/float64(max(r.st.store.putBytes.Load(), 1)), "ratio")
	n := float64(max(ok, 1))
	res.set("proc.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/n, "MB")
	res.set("proc.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	res.set("proc.gc_cpu_ratio", (gc1-gc0)/max(cpu.Seconds(), 1e-9), "ratio")
	res.set("proc.peak_heap_mb", float64(m1.HeapSys)/(1<<20), "MB")

	if cfg.traced {
		if err := r.traceMetrics(clients); err != nil {
			return nil, err
		}
		if cfg.probes > 0 {
			if err := r.probes(cfg.probes); err != nil {
				res.violate("probes: %v", err)
			}
		}
	}
	res.set("harness.error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	res.Correct = res.Failed == 0 && len(res.Violations) == 0
	return res, nil
}

// counters is one snapshot of every layer's cumulative counts; a window's
// counts are the difference of two.
type counters struct {
	proxy proxy.Stats
	psp   recpsp.Stats
	dedup dedup.Stats
}

func (r *runner) counters() counters {
	n := counters{proxy: r.st.proxy.Stats(), psp: r.rec.Stats()}
	if r.st.dedup != nil {
		n.dedup = r.st.dedup.Stats()
	}
	return n
}

// admitted sums the admission classes (zero with admission off).
func admitted(s *admission.Stats) (sum admission.ClassStats) {
	if s == nil {
		return sum
	}
	for _, c := range []admission.ClassStats{s.Cached, s.Cold, s.Calibrate} {
		sum.Admitted += c.Admitted
		sum.Queued += c.Queued
		sum.Shed += c.Shed
	}
	return sum
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// storeHeld sums the bytes the secret shards hold.
func (r *runner) storeHeld() int64 {
	var n int64
	for _, sh := range r.st.shards {
		n += sh.heldBytes()
	}
	return n
}
