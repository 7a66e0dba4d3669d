package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"p3/internal/admission"
	"p3/internal/proxy"
	"p3/internal/trace"
)

type opKind int

const (
	opUpload opKind = iota
	opDownload
	opCalibrate
	opVideoUpload
	opVideoDownload
	opSimilar
	numOps
)

var opNames = [numOps]string{"upload", "download", "calibrate", "video_upload", "video_download", "similar"}

func (k opKind) String() string { return opNames[k] }

// opFromString resolves a trace event's op name (the inverse of String).
func opFromString(s string) (opKind, bool) {
	i := slices.Index(opNames[:], s)
	return opKind(i), i >= 0
}

// corpus is a shared, growing set of uploaded objects.
type corpus[T any] struct {
	mu    sync.RWMutex
	items []T
}

func (c *corpus[T]) add(item T) {
	c.mu.Lock()
	c.items = append(c.items, item)
	c.mu.Unlock()
}

// pick maps a popularity rank onto an object; rank 0 is the most popular.
// A hand-edited (or hostile) trace may carry negative ranks, which must not
// panic the harness.
func (c *corpus[T]) pick(rank int) T {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.items[max(rank, 0)%len(c.items)]
}

func (c *corpus[T]) snapshot() []T {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]T(nil), c.items...)
}

// photoRef names one uploaded photo and the upload-pool payload it was
// minted from (its content group).
type photoRef struct {
	id      string
	payload int
}

// clipRef names one uploaded clip and how many frames it has (frame seeks
// need the count to stay in range).
type clipRef struct {
	id     string
	frames int
}

// workload generates one worker's op stream deterministically from its own
// rng (no shared locks on the decision path).
type workload struct {
	rng       *rand.Rand
	zipf      *rand.Zipf // photo popularity
	clipZipf  *rand.Zipf // clip popularity
	frameZipf *rand.Zipf // frame-seek popularity within a clip
	sc        *scenario
	totalW    float64
}

func (h *harness) newWorkload(seed int64) *workload {
	sc := &h.sc
	w := &workload{rng: rand.New(rand.NewSource(seed)), sc: sc}
	for _, weight := range sc.mix {
		w.totalW += weight
	}
	if sc.zipf > 1 {
		// rand.Zipf yields ranks in [0, imax] with P(k) ∝ 1/(k+1)^s — the
		// skewed popularity serving traces show.
		w.zipf = rand.NewZipf(w.rng, sc.zipf, 1, uint64(max(sc.photos-1, 1)))
		w.clipZipf = rand.NewZipf(w.rng, sc.zipf, 1, uint64(max(sc.clips-1, 1)))
	}
	if sc.frameZipf > 1 && sc.clipFramesMax > 1 {
		// Frame seeks skew toward early frames (rank 0 = frame 0), the
		// preview-scrubbing shape; ranks past a clip's end wrap.
		w.frameZipf = rand.NewZipf(w.rng, sc.frameZipf, 1, uint64(sc.clipFramesMax-1))
	}
	return w
}

func (w *workload) nextOp() opKind {
	x := w.rng.Float64() * w.totalW
	for k := opKind(0); k < numOps-1; k++ {
		if x < w.sc.mix[k] {
			return k
		}
		x -= w.sc.mix[k]
	}
	return numOps - 1
}

// rank draws a popularity rank over n objects: zipf-skewed when z is set,
// uniform otherwise.
func (w *workload) rank(z *rand.Zipf, n int) int {
	if z != nil {
		return int(z.Uint64())
	}
	return w.rng.Intn(max(n, 1))
}

func (w *workload) seekFrame(frames int) int {
	if frames <= 1 {
		return 0
	}
	if w.frameZipf != nil {
		return int(w.frameZipf.Uint64()) % frames
	}
	return w.rng.Intn(frames)
}

// variant draws a query: named sizes mostly, dynamic resizes and crops else.
func (w *workload) variant() url.Values {
	if w.rng.Float64() >= w.sc.dynamic {
		sizes := []string{"thumb", "small", "big"}
		return url.Values{"size": {sizes[w.rng.Intn(len(sizes))]}}
	}
	q := url.Values{}
	widths := []int{64, 128, 200, 320, 480}
	wpx := widths[w.rng.Intn(len(widths))]
	q.Set("w", strconv.Itoa(wpx))
	q.Set("h", strconv.Itoa(wpx*3/4))
	if w.rng.Float64() < 0.3 {
		// A modest crop well inside the smallest corpus photo.
		x, y := w.rng.Intn(64), w.rng.Intn(64)
		cw, ch := 128+w.rng.Intn(64), 96+w.rng.Intn(48)
		q.Set("crop", fmt.Sprintf("%d,%d,%d,%d", x, y, cw, ch))
	}
	return q
}

// Drawing an op and executing it are split around a trace.Event: a
// generated stream and a replayed trace run through one execution path, and
// recording is a tap on the event at dispatch time.
//
// drawEvent turns the workload's next draw into an event. Targets are
// positional — Photo is the popularity rank for downloads and the
// payload-pool index for uploads, Video likewise — so a replay against a
// corpus rebuilt from the trace header addresses equivalent objects even
// though the IDs themselves are minted fresh per run.
func (h *harness) drawEvent(w *workload) trace.Event {
	k := w.nextOp()
	ev := trace.Event{Op: k.String(), Photo: -1, Video: -1, Frame: -1}
	switch k {
	case opUpload:
		ev.Photo = w.rng.Intn(len(h.jpegPool))
	case opDownload:
		ev.Photo = w.rank(w.zipf, w.sc.photos)
		ev.Q = w.variant().Encode()
	case opSimilar:
		ev.Photo = w.rank(w.zipf, w.sc.photos)
	case opVideoUpload:
		ev.Video = w.rng.Intn(len(h.clipPool))
	case opVideoDownload:
		ev.Video = w.rank(w.clipZipf, w.sc.clips)
		if w.rng.Float64() >= w.sc.fullClip {
			ev.Frame = w.seekFrame(h.vpop.pick(ev.Video).frames)
		}
	}
	return ev
}

// execEvent executes one event against the stack, records it per op, and
// returns the client-observed outcome for the storm driver to attribute.
func (h *harness) execEvent(ev trace.Event) (time.Duration, error) {
	k, ok := opFromString(ev.Op)
	if !ok {
		return 0, fmt.Errorf("unknown trace op %q", ev.Op)
	}
	ctx, px := context.Background(), h.px
	if ev.Client != "" {
		ctx = admission.WithClient(ctx, ev.Client)
	}
	var err error
	start := time.Now()
	switch k {
	case opUpload:
		pi := max(ev.Photo, 0) % len(h.jpegPool)
		var id string
		if id, err = px.Upload(ctx, h.jpegPool[pi]); err == nil {
			h.pop.add(photoRef{id, pi})
		}
	case opDownload:
		q, _ := url.ParseQuery(ev.Q)
		_, err = px.Download(ctx, h.pop.pick(ev.Photo).id, q)
	case opCalibrate:
		// Turned away by the single-flight admission: backpressure, not a
		// failure.
		if _, err = px.Calibrate(ctx); errors.As(err, new(*proxy.CalibrationInFlightError)) {
			err = nil
		}
	case opVideoUpload:
		clip := h.clipPool[max(ev.Video, 0)%len(h.clipPool)]
		var ref clipRef
		if ref.id, ref.frames, err = px.UploadVideo(ctx, clip); err == nil {
			h.vpop.add(ref)
		}
	case opVideoDownload:
		ref := h.vpop.pick(ev.Video)
		q := url.Values{}
		if ev.Frame >= 0 {
			q.Set("frame", strconv.Itoa(ev.Frame%max(ref.frames, 1)))
		}
		_, err = px.DownloadVideo(ctx, ref.id, q)
	case opSimilar:
		_, err = px.Similar(ctx, h.pop.pick(ev.Photo).id, proxy.DefaultSimilarDistance)
	}
	d := time.Since(start)
	h.recs[k].record(d, err)
	return d, err
}

// tap records the event if a trace is being recorded. Drivers call it at
// dispatch time, so the trace captures arrivals rather than service.
func (h *harness) tap(ev trace.Event) {
	if h.recorder != nil {
		h.recorder.Record(ev)
	}
}

// drivers are the arrival processes. Each dispatches events until the run's
// duration is over and returns once every op it started has finished.
var drivers = map[string]func(*harness){
	"closed": (*harness).driveClosed,
	"open":   (*harness).driveOpen,
	"storm":  (*harness).driveStorm,
}

// driveClosed: each worker issues back-to-back requests; offered load
// adapts to service time, measuring capacity.
func (h *harness) driveClosed() {
	deadline := h.started.Add(h.sc.duration)
	var wg sync.WaitGroup
	for i := 0; i < h.sc.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := h.newWorkload(h.sc.seed + int64(i))
			for time.Now().Before(deadline) {
				ev := h.drawEvent(w)
				h.tap(ev)
				h.execEvent(ev)
			}
		}()
	}
	wg.Wait()
}

// poisson is one open-loop dispatcher: arrivals at rate() per second
// regardless of completions (exponential inter-arrivals), so queueing delay
// shows up in the latency. Events are drawn on the dispatcher itself, in
// order, and executed in goroutines; tally, if set, gets each outcome and
// whether the op was dispatched inside the storm window.
func (h *harness) poisson(ci int, client string, rate func() float64, tally func(inStorm bool, d time.Duration, err error)) {
	w := h.newWorkload(h.sc.seed + int64(ci))
	arrivals := rand.New(rand.NewSource(h.sc.seed + 7919*int64(ci)))
	var wg sync.WaitGroup
	defer wg.Wait()
	for time.Since(h.started) < h.sc.duration {
		time.Sleep(time.Duration(arrivals.ExpFloat64() / rate() * float64(time.Second)))
		ev := h.drawEvent(w)
		ev.Client = client
		h.tap(ev)
		inStorm := h.stormSince.Load() > 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := h.execEvent(ev)
			if tally != nil {
				tally(inStorm, d, err)
			}
		}()
	}
}

// driveOpen: one dispatcher at the row's rate; bursts multiply it 5x in
// alternating 2 s phases.
func (h *harness) driveOpen() {
	h.poisson(0, "", func() float64 {
		if h.sc.burst && int(time.Since(h.started)/(2*time.Second))%2 == 1 {
			return 5 * h.sc.rate
		}
		return h.sc.rate
	}, nil)
}

// driveStorm: every client is its own dispatcher at an equal share of rate;
// while the storm window is open the attacker ramps to attackerMult times
// that share over stormRamp of the run and holds it there.
func (h *harness) driveStorm() {
	sc := &h.sc
	fair := sc.rate / float64(sc.clients+1)
	rampOver := stormRamp * sc.duration.Seconds()
	fmt.Printf("p3load: storm: %d victims + 1 attacker at %.1f req/s each; attacker x%g while the storm window is open\n",
		sc.clients, fair, sc.attackerMult)
	var wg sync.WaitGroup
	for ci := 0; ci < sc.clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.poisson(ci, fmt.Sprintf("victim-%d", ci), func() float64 { return fair },
				func(inStorm bool, d time.Duration, err error) {
					if inStorm {
						h.victimStorm.record(d, err)
					} else {
						h.victimSteady.record(d, err)
					}
				})
		}()
	}
	h.poisson(sc.clients, "attacker", func() float64 {
		since := h.stormSince.Load()
		if since == 0 {
			return fair
		}
		ramp := min(1, (time.Since(h.started)-time.Duration(since)).Seconds()/rampOver)
		return fair * (1 + (sc.attackerMult-1)*ramp)
	}, func(_ bool, d time.Duration, err error) {
		h.attackRec.record(d, err)
		if errors.As(err, new(*admission.ShedError)) {
			h.attackerShed.Add(1)
		}
	})
	wg.Wait()
}

// driveReplay dispatches each recorded event at its (scaled) offset,
// open-loop, so recorded overload replays as overload. Dispatch order is
// the recorded order exactly; -trace-record beside it re-records the same
// event sequence.
func (h *harness) driveReplay(log *trace.Log) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	return trace.Replay(context.Background(), log, h.sc.traceSpeed, func(ev trace.Event) {
		h.tap(ev)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.execEvent(ev)
		}()
	})
}
