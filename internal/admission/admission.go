// Package admission is the proxy's overload-protection layer: it decides,
// before any backend or codec work happens, whether a request runs now,
// waits, or is shed with a Retry-After hint. The proxy serves three very
// differently priced operations — sub-millisecond cached-variant hits,
// ~17 ms cold reconstructions, and multi-second calibration sweeps — and
// without admission control one storming client or one burst of cold
// misses queues behind the expensive work and detonates everyone's tail
// latency.
//
// The layer composes two mechanisms, applied in order:
//
//  1. A storm detector (storm.go): a global CUSUM over windowed arrival
//     counts detects the onset of a request storm, and per-key
//     exponentially decayed rates identify which clients are storming.
//     Offending keys are clamped — shed with reason "storm" — while a
//     flash crowd of many distinct clients is left alone.
//  2. A bounded priority queue. At most MaxInflight requests run
//     concurrently; excess requests wait in per-class FIFO queues drained
//     in class-priority order (cached hits before cold reconstructions
//     before calibrations), each bounded at QueueDepth ("queue_full" when
//     over). A waiter whose context ends in the queue is shed with reason
//     "deadline".
//
// Every decision is counted (p3_admission_* series, see the metrics rows
// in ARCHITECTURE.md) and snapshotted by Stats for the /stats JSON view.
package admission

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"p3/internal/metrics"
)

// Class is a request cost class. Lower values are cheaper and drain first:
// a cached-variant hit should never wait behind a cold reconstruction, and
// nothing should wait behind a calibration sweep.
type Class int

const (
	// Cached marks requests expected to be served from the variant cache.
	Cached Class = iota
	// Cold marks requests that must do real reconstruction or upload work.
	Cold
	// Calibrate marks calibration passes (probe or full sweep).
	Calibrate
	numClasses
)

// String names the class the way the metric labels and /stats JSON do.
func (c Class) String() string {
	switch c {
	case Cached:
		return "cached"
	case Cold:
		return "cold"
	case Calibrate:
		return "calibrate"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Shed reasons, used as the reason label on p3_admission_shed_total and in
// ShedError.
const (
	ReasonStorm     = "storm"      // client clamped by the storm detector
	ReasonDeadline  = "deadline"   // caller's context ended while queued
	ReasonQueueFull = "queue_full" // class queue at its depth bound
)

// reasons lists the shed reasons in the order their counters are
// registered and indexed.
var reasons = [...]string{ReasonStorm, ReasonDeadline, ReasonQueueFull}

// ShedError reports a request turned away by the admission layer. It is
// back-pressure, not failure: RetryAfter estimates when the same request
// would be admitted, and HTTP callers map it to 503 with a Retry-After
// header.
type ShedError struct {
	Class      Class
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: %s request shed (%s); retry in %s", e.Class, e.Reason, e.RetryAfter)
}

// Config parameterizes a Controller. MaxInflight is required.
type Config struct {
	// MaxInflight bounds how many admitted requests run concurrently.
	MaxInflight int
	// QueueDepth bounds each class's wait queue (0 = 64).
	QueueDepth int
	// StormClamp clamps clients whose arrival rate exceeds this multiple of
	// the per-client fair share while a storm is detected; 0 disables the
	// detector.
	StormClamp float64
}

// waiter is one queued request.
type waiter struct {
	ready   chan struct{} // closed when granted
	granted bool          // set under Controller.mu before close(ready)
	at      time.Time     // enqueue time, for the queue-wait histogram
}

// classState is the per-class slice of the controller.
type classState struct {
	queue list.List // of *waiter

	admitted metrics.Counter
	queued   metrics.Counter
	waitHist *metrics.Histogram
	shed     [len(reasons)]*metrics.Counter
}

// Controller is the admission layer for one proxy instance. All methods
// are safe for concurrent use.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	classes  [numClasses]*classState

	storm  *detector
	clamps *metrics.Counter
}

// New builds a Controller registering its instruments in r under the given
// proxy instance name. MaxInflight must be positive.
func New(cfg Config, r *metrics.Registry, name string) (*Controller, error) {
	if cfg.MaxInflight < 1 {
		return nil, fmt.Errorf("admission: MaxInflight %d (need >= 1)", cfg.MaxInflight)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("admission: QueueDepth %d (need >= 1)", cfg.QueueDepth)
	}
	if r == nil {
		r = metrics.Default
	}
	c := &Controller{cfg: cfg}
	if cfg.StormClamp > 0 {
		c.storm = newDetector(cfg.StormClamp)
	}
	labels := func(cl Class) []metrics.Label {
		return []metrics.Label{{Key: "proxy", Value: name}, {Key: "class", Value: cl.String()}}
	}
	for cl := Class(0); cl < numClasses; cl++ {
		cs := &classState{}
		cs.waitHist = r.Histogram("p3_admission_queue_wait_seconds",
			"Time admitted requests spent queued, by class.", labels(cl)...)
		for i, reason := range reasons {
			l := append(labels(cl), metrics.Label{Key: "reason", Value: reason})
			cs.shed[i] = r.Counter("p3_admission_shed_total",
				"Requests shed by the admission layer, by class and reason.", l...)
		}
		c.classes[cl] = cs
		metrics.Export(r, "p3_admission", func() ClassStats { return c.classStats(cl) }, labels(cl)...)
	}
	c.clamps = r.Counter("p3_admission_clamped_total",
		"Client keys newly clamped by the storm detector.",
		metrics.Label{Key: "proxy", Value: name})
	metrics.Export(r, "p3_admission", c.Stats, metrics.Label{Key: "proxy", Value: name})
	return c, nil
}

// Admit runs the request through the storm clamp and the bounded priority
// queue and either grants a slot, returning a release func the caller MUST
// call when the request finishes, or sheds with *ShedError. A request is
// never both: the error and the release func are mutually exclusive.
func (c *Controller) Admit(ctx context.Context, class Class, client string) (release func(), err error) {
	if class < 0 || class >= numClasses {
		class = Cold
	}
	cs := c.classes[class]

	// Storm clamp: a client the detector has flagged is turned away before
	// it can touch the queue.
	if c.storm != nil {
		now := time.Now()
		clamped, until, newClamp := c.storm.arrival(client, now)
		if newClamp {
			c.clamps.Inc()
		}
		if clamped {
			return nil, c.shed(cs, class, ReasonStorm, until.Sub(now))
		}
	}

	c.mu.Lock()
	if c.inflight < c.cfg.MaxInflight {
		c.inflight++
		c.mu.Unlock()
		cs.admitted.Inc()
		return c.releaser(), nil
	}
	if cs.queue.Len() >= c.cfg.QueueDepth {
		c.mu.Unlock()
		return nil, c.shed(cs, class, ReasonQueueFull, cs.waitHist.Snapshot().P95)
	}
	w := &waiter{ready: make(chan struct{}), at: time.Now()}
	el := cs.queue.PushBack(w)
	c.mu.Unlock()
	cs.queued.Inc()

	select {
	case <-w.ready:
	case <-ctx.Done():
		c.mu.Lock()
		if !w.granted {
			cs.queue.Remove(el)
			c.mu.Unlock()
			return nil, c.shed(cs, class, ReasonDeadline, cs.waitHist.Snapshot().P95)
		}
		c.mu.Unlock()
		// The grant raced the cancellation: the slot is ours, so take it;
		// the caller's op will fail fast on its dead context and release
		// the slot immediately. Never both shed and served.
	}
	cs.waitHist.Observe(time.Since(w.at))
	cs.admitted.Inc()
	return c.releaser(), nil
}

// releaser returns the closure Admit hands an admitted request: it frees
// the slot, handing it straight to the highest-priority waiter if any.
func (c *Controller) releaser() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			if w := c.nextWaiterLocked(); w != nil {
				// Transfer the slot without decrementing: the waiter runs
				// in our place.
				w.granted = true
				close(w.ready)
			} else {
				c.inflight--
			}
			c.mu.Unlock()
		})
	}
}

// nextWaiterLocked pops the head of the highest-priority non-empty queue.
func (c *Controller) nextWaiterLocked() *waiter {
	for cl := Class(0); cl < numClasses; cl++ {
		q := &c.classes[cl].queue
		if el := q.Front(); el != nil {
			return q.Remove(el).(*waiter)
		}
	}
	return nil
}

// shed counts and builds one rejection. RetryAfter is clamped to at least
// one second: the HTTP header has whole-second resolution and "0" reads as
// "hammer me again immediately", the opposite of back-pressure.
func (c *Controller) shed(cs *classState, class Class, reason string, retry time.Duration) error {
	for i, r := range reasons {
		if r == reason {
			cs.shed[i].Inc()
		}
	}
	return &ShedError{Class: class, Reason: reason, RetryAfter: max(retry, time.Second)}
}

// ClassStats is one class's slice of the Stats snapshot. The tagged
// fields are p3_admission_* series labeled with the class
// (metrics.Export); Shed is the sum of the per-reason
// p3_admission_shed_total series.
type ClassStats struct {
	Admitted   uint64 `json:"admitted" metric:"counter" help:"Requests admitted past the admission layer, by class."`
	Queued     uint64 `json:"queued" metric:"counter" help:"Admitted requests that had to wait in the class queue first."`
	Shed       uint64 `json:"shed"`
	QueueDepth int    `json:"queue_depth" metric:"gauge" help:"Requests currently waiting in the class queue."`
}

// Stats is the /stats JSON view of the admission layer. Field names follow
// the p3_admission_* metric scheme (ARCHITECTURE.md).
type Stats struct {
	Cached       ClassStats        `json:"cached"`
	Cold         ClassStats        `json:"cold"`
	Calibrate    ClassStats        `json:"calibrate"`
	Inflight     int               `json:"inflight" metric:"gauge" help:"Admitted requests currently executing."`
	ShedByReason map[string]uint64 `json:"shed_by_reason"`
	ClampedKeys  int               `json:"clamped_keys"`
	StormActive  bool              `json:"storm_active"`
}

// classStats snapshots one class.
func (c *Controller) classStats(cl Class) ClassStats {
	cs := c.classes[cl]
	var shed uint64
	for _, ctr := range cs.shed {
		shed += ctr.Value()
	}
	c.mu.Lock()
	depth := cs.queue.Len()
	c.mu.Unlock()
	return ClassStats{
		Admitted:   cs.admitted.Value(),
		Queued:     cs.queued.Value(),
		Shed:       shed,
		QueueDepth: depth,
	}
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	s := Stats{Cached: c.classStats(Cached), Cold: c.classStats(Cold), Calibrate: c.classStats(Calibrate)}
	c.mu.Lock()
	s.Inflight = c.inflight
	c.mu.Unlock()
	s.ShedByReason = make(map[string]uint64, len(reasons))
	for i, reason := range reasons {
		for _, cs := range c.classes {
			s.ShedByReason[reason] += cs.shed[i].Value()
		}
	}
	if c.storm != nil {
		s.ClampedKeys, s.StormActive = c.storm.snapshot(time.Now())
	}
	return s
}
