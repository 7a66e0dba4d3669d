package main

import (
	"bytes"
	"math"
	"math/rand"
	"sort"

	"p3/internal/dataset"
	"p3/internal/imaging"
	"p3/internal/jpegx"
)

// Size classes of the corpus: windows on dataset.Natural scenes, q92 4:2:0.
const (
	classS = iota // 512×384
	classM        // 1024×768
	classL        // 1600×1200
	numClasses
)

var classDims = [numClasses][2]int{{512, 384}, {1024, 768}, {1600, 1200}}

// variantTable is the fixed set of renditions a view can ask for, as PSP
// wire queries. The first four are named/stored sizes, the next three are
// dynamic resizes, the last is a crop.
var variantTable = [...]string{
	"size=thumb", "size=small", "size=big", "",
	"w=320&h=240", "w=128&h=96", "w=480&h=360",
	"crop=32,32,160,120&w=200&h=150",
}

const numVariants = len(variantTable)

type opKind uint8

const (
	opView opKind = iota
	opUpload
	opSimilar
	opVideo
	opDelete
	numOps
)

var opNames = [numOps]string{"download", "upload", "similar", "video", "delete"}

const (
	clipFrames = 16
	clipW      = 320
	clipH      = 240
)

// workload is one row of the benchmark: the stack it builds, the state it
// sets up, the op mix its clients run, and the gate on its cache behaviour.
// One runner executes every row.
type workload struct {
	name, why string

	// Stack. httpBackends selects p3proxy's default deployed topology (PSP
	// and a 3-shard × 2-replica secret store, all over loopback HTTP);
	// otherwise the PSP is in-process and secrets go to a 4-of-6 erasure
	// store over six disk shards.
	httpBackends      bool
	dedup, similarity bool
	maxInflight       int   // admission slots; 0 = admission off
	variantCache      int64 // bytes; 0 = proxy default
	secretCache       int64

	// Set-up state.
	sources [numClasses]int // distinct source photos per size class
	preload [numClasses]int // photos uploaded during set-up, cycling over the class's sources
	clips   int             // 16-frame clips uploaded during set-up
	warm    int             // most popular preloaded photos whose every variant set-up requests once; -1 = all

	// Op lists.
	mix       [numOps]int      // weights of view, upload, similar, video, delete
	zipf      float64          // view skew over photos; 0 = shuffled full cycles over every (photo, variant)
	uploadBy  [numClasses]int  // class weights of an upload's source, shared equally by the class's sources
	variantBy [numVariants]int // view weights over variantTable; zero = uniform
	listLen   int              // ops per client list; the list repeats if the window outlasts it

	hitRatio [2]float64 // gate: variant-cache hit ratio over the window must fall inside
}

// workloads is the benchmark. Names are final.
var workloads = []workload{
	{
		name:    "upload_sync",
		why:     "write path alone: split, seal, erasure-encode and a six-way fsynced shard fan-out; caches and reconstruction idle",
		sources: [numClasses]int{6, 4, 2}, mix: [numOps]int{opUpload: 1},
		uploadBy: [numClasses]int{50, 35, 15}, listLen: 4096,
		hitRatio: [2]float64{0, 1},
	},
	{
		name:         "cold_views",
		why:          "compute-bound read path: 192 keys over caches of 64 KiB, so nearly every view fetches, reconstructs and re-encodes",
		variantCache: 64 << 10, secretCache: 64 << 10,
		sources: [numClasses]int{8, 3, 1}, preload: [numClasses]int{16, 6, 2},
		mix: [numOps]int{opView: 1}, listLen: 4 * 24 * numVariants,
		hitRatio: [2]float64{0, 0.05},
	},
	{
		name:    "hot_feed",
		why:     "same download layer all cache hits: handler, key, lookup, write in microseconds, so per-request bookkeeping shows",
		sources: [numClasses]int{5, 1, 0}, preload: [numClasses]int{10, 2, 0},
		warm: -1, mix: [numOps]int{opView: 1}, zipf: 1.2, listLen: 1 << 16,
		hitRatio: [2]float64{0.99, 1},
	},
	{
		name:         "household_mix",
		why:          "deployed shape, reads beside writes: HTTP PSP and replicated HTTP stores, dedup, similarity, admission, video, deletes",
		httpBackends: true, dedup: true, similarity: true, maxInflight: 4,
		variantCache: 4 << 20,
		sources:      [numClasses]int{24, 4, 0}, preload: [numClasses]int{20, 4, 0}, clips: 3,
		warm: 8, mix: [numOps]int{opView: 70, opUpload: 10, opSimilar: 8, opVideo: 7, opDelete: 5},
		zipf: 1.1, uploadBy: [numClasses]int{24, 4, 0}, listLen: 8192,
		// 60 % named sizes, 28 % dynamic resizes, 12 % crop.
		variantBy: [numVariants]int{45, 45, 45, 45, 28, 28, 28, 36},
		hitRatio:  [2]float64{0.60, 0.85},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// source is one distinct photo of the corpus.
type source struct {
	class int
	jpeg  []byte
}

// encodeJPEG serializes pixels the way the corpus is defined: q92 4:2:0,
// standard Huffman tables.
func encodeJPEG(pix *jpegx.PlanarImage) ([]byte, error) {
	coeffs, err := pix.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sceneMargin is how far (in pixels, one 4:2:0 MCU) the seed can shift a
// photo's window over its scene.
const sceneMargin = 16

// genPhoto renders scene at w×h. The scene — texture, lighting, objects —
// is the same for every seed, so runs with different seeds measure the same
// amount of work; the seed picks where in the scene the window sits, which
// moves every 8×8 block and so changes every coefficient, every byte and
// every content hash.
func genPhoto(rng *rand.Rand, scene int64, w, h int) ([]byte, error) {
	pix := dataset.Natural(scene, w+sceneMargin, h+sceneMargin)
	window := imaging.Crop{X: rng.Intn(sceneMargin), Y: rng.Intn(sceneMargin), W: w, H: h}
	return encodeJPEG(window.Apply(pix))
}

// genCorpus makes the workload's source photos (class-major order) and
// clips from the seed alone.
func genCorpus(w *workload, seed int64) (sources []source, clips [][][]byte, err error) {
	for class, n := range w.sources {
		for i := 0; i < n; i++ {
			sources = append(sources, source{class: class})
		}
	}
	errs := make([]error, len(sources)+w.clips)
	clips = make([][][]byte, w.clips)
	parallel(len(errs), func(_, i int) {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		if i < len(sources) {
			d := classDims[sources[i].class]
			sources[i].jpeg, errs[i] = genPhoto(rng, int64(i), d[0], d[1])
			return
		}
		c := i - len(sources)
		for f := 0; f < clipFrames && errs[i] == nil; f++ {
			var frame []byte
			frame, errs[i] = genPhoto(rng, int64(1000+c*clipFrames+f), clipW, clipH)
			clips[c] = append(clips[c], frame)
		}
	})
	for _, e := range errs {
		if e != nil {
			return nil, nil, e
		}
	}
	return sources, clips, nil
}

// spread orders n[0] items of class 0, n[1] of class 1, … so each class is
// evenly spaced through the result. The order depends on the counts alone,
// so which popularity ranks hold the large photos does not change with the
// seed.
func spread(n [numClasses]int) []int {
	type slot struct {
		pos   float64
		class int
	}
	var slots []slot
	for class, count := range n {
		for i := 0; i < count; i++ {
			slots = append(slots, slot{(float64(i) + 0.5) / float64(count), class})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].pos < slots[j].pos })
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = s.class
	}
	return out
}

// preloadSources lists, in popularity-rank order, the source index each
// photo uploaded during set-up comes from.
func preloadSources(w *workload) []int {
	first := [numClasses]int{0, w.sources[classS], w.sources[classS] + w.sources[classM]}
	var seen [numClasses]int
	var out []int
	for _, class := range spread(w.preload) {
		out = append(out, first[class]+seen[class]%w.sources[class])
		seen[class]++
	}
	return out
}

// op is one request of a client's list. Views, similar queries and deletes
// name their photo either directly (photo >= 0, an index into the
// preloaded photos) or as a popularity quantile u resolved at run time
// against the client's current photo list (the preloaded photos, then its
// own uploads, most recent first).
type op struct {
	kind    opKind
	variant uint8
	frame   uint8
	photo   int16
	src     uint16 // upload: source index; video: clip index
	u       float32
}

// opBlock is how many ops a list is composed in. Every block holds each op
// kind, upload source and variant in exact proportion to its weight, and its
// popularity quantiles one per equal stratum; the seed only shuffles. Lists
// of different seeds therefore ask for the same amount of work, and any
// window longer than a few blocks sees the mix the row declares.
const opBlock = 100

// genOps builds one client's list from (seed, client) alone.
func genOps(w *workload, seed int64, client int) []op {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 17))
	nPre := w.preload[classS] + w.preload[classM] + w.preload[classL]
	ops := make([]op, 0, w.listLen+opBlock)

	if w.zipf == 0 && w.mix[opView] > 0 {
		// Each pass over the key space is a fresh shuffle of every (photo,
		// variant).
		for len(ops) < w.listLen {
			for _, k := range rng.Perm(nPre * numVariants) {
				ops = append(ops, op{kind: opView, photo: int16(k / numVariants), variant: uint8(k % numVariants)})
			}
		}
		return ops[:w.listLen]
	}

	// An upload's source: each class's weight shared equally by its sources.
	var sourceWeights []int
	for class, n := range w.sources {
		for i := 0; i < n; i++ {
			sourceWeights = append(sourceWeights, w.uploadBy[class]*1000/n)
		}
	}
	variantWeights := w.variantBy[:]
	if w.variantBy == [numVariants]int{} {
		variantWeights = []int{1, 1, 1, 1, 1, 1, 1, 1}
	}
	staticPop := w.mix[opUpload] == 0 // no uploads: ranks resolve now
	cdf := zipfCDF(w.zipf, nPre)
	own := 0          // the client's live uploads, as the run will see them
	var uploads []int // upcoming upload sources, dealt a hundred at a time
	for len(ops) < w.listLen {
		kinds := deck(rng, w.mix[:], opBlock)
		count := func(k opKind) (n int) {
			for _, kind := range kinds {
				if opKind(kind) == k {
					n++
				}
			}
			return n
		}
		views, similars := strata(rng, count(opView)), strata(rng, count(opSimilar))
		variants := deck(rng, variantWeights, count(opView))
		if len(uploads) < opBlock { // enough for a block of nothing but uploads
			uploads = append(uploads, deck(rng, sourceWeights, opBlock)...)
		}
		for _, kind := range kinds {
			o := op{kind: opKind(kind), photo: -1}
			if o.kind == opDelete && own == 0 {
				o.kind = opUpload // nothing of its own to delete yet
			}
			switch o.kind {
			case opView:
				o.u, views = views[0], views[1:]
				o.variant, variants = uint8(variants[0]), variants[1:]
			case opSimilar:
				o.u, similars = similars[0], similars[1:]
			case opUpload:
				o.src, uploads = uint16(uploads[0]), uploads[1:]
				own++
			case opVideo:
				o.src, o.frame = uint16(rng.Intn(w.clips)), uint8(rng.Intn(clipFrames))
			case opDelete:
				own--
			}
			if staticPop && (o.kind == opView || o.kind == opSimilar) {
				o.photo = int16(rankOf(cdf, nPre, o.u))
			}
			ops = append(ops, o)
		}
	}
	return ops[:w.listLen]
}

// deck returns n draws in which item i appears in proportion to weights[i]
// (largest remainder, ties broken at random), shuffled.
func deck(rng *rand.Rand, weights []int, n int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	out := make([]int, 0, n)
	if total == 0 {
		return out
	}
	type rem struct{ item, frac int }
	var rems []rem
	for i, w := range weights {
		for k := 0; k < n*w/total; k++ {
			out = append(out, i)
		}
		rems = append(rems, rem{i, n * w % total})
	}
	rng.Shuffle(len(rems), func(i, j int) { rems[i], rems[j] = rems[j], rems[i] })
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; len(out) < n; i++ {
		out = append(out, rems[i%len(rems)].item)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// strata returns n quantiles in [0, 1), one from each of n equal strata,
// shuffled.
func strata(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = (float32(i) + rng.Float32()) / float32(n)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// maxPopulation bounds how many photos a client's popularity list can hold.
const maxPopulation = 1 << 14

// zipfCDF returns cumulative (unnormalised) Zipf weights for ranks
// 0..maxPopulation-1 with exponent s.
func zipfCDF(s float64, atLeast int) []float64 {
	cdf := make([]float64, max(maxPopulation, atLeast))
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	return cdf
}

// rankOf maps quantile u to a rank in a population of n.
func rankOf(cdf []float64, n int, u float32) int {
	n = min(n, len(cdf))
	target := float64(u) * cdf[n-1]
	return min(sort.SearchFloat64s(cdf[:n], target), n-1)
}
