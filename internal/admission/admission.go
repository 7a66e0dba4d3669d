// Package admission is the proxy's overload-protection layer: it decides,
// before any backend or codec work happens, whether a request runs now,
// waits, or is shed with a Retry-After hint. The proxy serves three very
// differently priced operations — sub-millisecond cached-variant hits,
// ~17 ms cold reconstructions, and multi-second calibration sweeps — and
// without admission control one storming client or one burst of cold
// misses queues behind the expensive work and detonates everyone's tail
// latency.
//
// The layer composes four independent mechanisms, applied in order:
//
//  1. Per-client token buckets. Each client key (from the X-P3-Client
//     header or the remote address, see ClientKey) gets a lazily created
//     bucket refilled at the configured rate; buckets live in a
//     bytes-bounded LRU so a million distinct clients cannot balloon proxy
//     memory. A client out of tokens is shed with reason "client_rate"
//     before it can touch the queue.
//  2. A storm detector (storm.go): a global CUSUM over windowed arrival
//     counts detects the onset of a request storm, and per-key
//     exponentially decayed rates identify which clients are storming.
//     Offending keys are clamped — shed with reason "storm" — while a
//     flash crowd of many distinct clients is left alone.
//  3. Deadline-aware shedding. Each cost class tracks a moving p95 of its
//     service time; a request whose context deadline cannot cover that
//     estimate is shed immediately ("deadline") instead of wasting a slot
//     on work whose answer nobody will wait for.
//  4. A bounded priority queue. At most MaxInflight requests run
//     concurrently; excess requests wait in per-class FIFO queues drained
//     in class-priority order (cached hits before cold reconstructions
//     before calibrations), each bounded at QueueDepth ("queue_full" when
//     over).
//
// Every decision is counted (p3_admission_* series, see the metrics rows
// in ARCHITECTURE.md) and snapshotted by Stats for the /stats JSON view.
package admission

import (
	"container/list"
	"context"
	"fmt"
	"sort"
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
	ReasonClientRate = "client_rate" // per-client token bucket empty
	ReasonStorm      = "storm"       // client clamped by the storm detector
	ReasonDeadline   = "deadline"    // remaining deadline < class p95 service time
	ReasonQueueFull  = "queue_full"  // class queue at its depth bound
)

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

// Config parameterizes a Controller. The zero value of every optional
// field picks the documented default; MaxInflight is required.
type Config struct {
	// MaxInflight bounds how many admitted requests run concurrently.
	MaxInflight int
	// QueueDepth bounds each class's wait queue (default 64).
	QueueDepth int
	// ClientRPS is each client's token-bucket refill rate in requests per
	// second; 0 disables per-client rate limiting.
	ClientRPS float64
	// ClientBurst is the bucket capacity (default max(2*ClientRPS, 8)).
	ClientBurst float64
	// BucketBytes bounds the memory of the client-bucket LRU (default 1 MiB,
	// roughly 10k concurrent client identities).
	BucketBytes int64
	// StormClamp clamps clients whose arrival rate exceeds this multiple of
	// the per-client fair share while a storm is detected; 0 disables the
	// detector.
	StormClamp float64
	// Storm tunes the detector beyond the clamp factor; zero fields default
	// (see stormDefaults).
	Storm StormConfig

	// now overrides the clock in tests.
	now func() time.Time
}

// serviceWindow is how many completed requests the per-class moving p95
// service-time estimate looks back over.
const serviceWindow = 256

// waiter is one queued request.
type waiter struct {
	class   Class
	ready   chan struct{} // closed when granted
	granted bool          // set under Controller.mu before close(ready)
	at      time.Time     // enqueue time, for the queue-wait histogram
}

// classState is the per-class slice of the controller.
type classState struct {
	queue list.List // of *waiter

	// Moving service-time window: a ring of the last serviceWindow
	// durations, with the p95 re-estimated every few completions so the
	// admit path reads one atomic-ish cached value instead of sorting.
	svcMu    sync.Mutex
	svc      [serviceWindow]time.Duration
	svcLen   int
	svcNext  int
	svcDirty int
	svcP95   time.Duration

	admitted metrics.Counter
	queued   metrics.Counter
	waitHist *metrics.Histogram
	shed     [4]*metrics.Counter // by reason, indexed by reasonIndex
}

// reasons lists the shed reasons in reasonIndex order.
var reasons = [...]string{ReasonClientRate, ReasonStorm, ReasonDeadline, ReasonQueueFull}

func reasonIndex(reason string) int {
	switch reason {
	case ReasonClientRate:
		return 0
	case ReasonStorm:
		return 1
	case ReasonDeadline:
		return 2
	default:
		return 3
	}
}

// Controller is the admission layer for one proxy instance. All methods
// are safe for concurrent use.
type Controller struct {
	cfg Config
	now func() time.Time

	mu       sync.Mutex
	inflight int
	classes  [numClasses]*classState

	buckets *bucketLRU
	storm   *detector

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
	if cfg.ClientBurst <= 0 {
		cfg.ClientBurst = max(2*cfg.ClientRPS, 8)
	}
	if cfg.BucketBytes <= 0 {
		cfg.BucketBytes = 1 << 20
	}
	if r == nil {
		r = metrics.Default
	}
	c := &Controller{cfg: cfg, now: cfg.now}
	if c.now == nil {
		c.now = time.Now
	}
	if cfg.ClientRPS > 0 {
		c.buckets = newBucketLRU(cfg.BucketBytes)
	}
	if cfg.StormClamp > 0 {
		c.storm = newDetector(cfg.StormClamp, cfg.Storm)
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

// MustNew is New for wiring code whose config is validated elsewhere.
func MustNew(cfg Config, r *metrics.Registry, name string) *Controller {
	c, err := New(cfg, r, name)
	if err != nil {
		panic(err)
	}
	return c
}

// Admit runs the request through the gauntlet — storm clamp, client token
// bucket, deadline check, bounded priority queue — and either grants a
// slot, returning a release func the caller MUST call when the request
// finishes, or sheds with *ShedError. A request is never both: the error
// and the release func are mutually exclusive.
func (c *Controller) Admit(ctx context.Context, class Class, client string) (release func(), err error) {
	if class < 0 || class >= numClasses {
		class = Cold
	}
	now := c.now()
	cs := c.classes[class]

	// Storm clamp: a client the detector has flagged is turned away before
	// anything else, at one map lookup of cost.
	if c.storm != nil {
		clamped, until, newClamps := c.storm.arrival(client, now)
		if newClamps > 0 {
			c.clamps.Add(uint64(newClamps))
		}
		if clamped {
			return nil, c.shed(cs, class, ReasonStorm, until.Sub(now))
		}
	}

	// Per-client token bucket.
	if c.buckets != nil {
		if ok, wait := c.buckets.take(client, c.cfg.ClientRPS, c.cfg.ClientBurst, now); !ok {
			return nil, c.shed(cs, class, ReasonClientRate, wait)
		}
	}

	// Deadline-aware shedding: if the class's moving p95 service time
	// already exceeds what remains of the caller's deadline, the work
	// would finish after the caller gave up — shed now, cheaply.
	p95 := cs.p95()
	if deadline, ok := ctx.Deadline(); ok && p95 > 0 {
		if remaining := deadline.Sub(now); remaining < p95 {
			return nil, c.shed(cs, class, ReasonDeadline, p95-remaining)
		}
	}

	c.mu.Lock()
	if c.inflight < c.cfg.MaxInflight {
		c.inflight++
		c.mu.Unlock()
		cs.admitted.Inc()
		return c.releaser(cs, now), nil
	}
	if cs.queue.Len() >= c.cfg.QueueDepth {
		c.mu.Unlock()
		// Expected drain time for a full queue: everything ahead at the
		// class's p95, MaxInflight at a time.
		wait := time.Duration(float64(p95) * float64(c.cfg.QueueDepth) / float64(c.cfg.MaxInflight))
		return nil, c.shed(cs, class, ReasonQueueFull, wait)
	}
	w := &waiter{class: class, ready: make(chan struct{}), at: now}
	el := cs.queue.PushBack(w)
	c.mu.Unlock()
	cs.queued.Inc()

	select {
	case <-w.ready:
		cs.waitHist.Observe(c.now().Sub(w.at))
		cs.admitted.Inc()
		return c.releaser(cs, c.now()), nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: the slot is ours, so take
			// it; the caller's op will fail fast on its dead context and
			// release the slot immediately. Never both shed and served.
			c.mu.Unlock()
			cs.waitHist.Observe(c.now().Sub(w.at))
			cs.admitted.Inc()
			return c.releaser(cs, c.now()), nil
		}
		cs.queue.Remove(el)
		c.mu.Unlock()
		return nil, c.shed(cs, class, ReasonDeadline, cs.p95())
	}
}

// releaser returns the closure Admit hands an admitted request: it records
// the service time into the class's moving window and frees the slot,
// handing it straight to the highest-priority waiter if any.
func (c *Controller) releaser(cs *classState, start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			cs.recordService(c.now().Sub(start))
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
	cs.shed[reasonIndex(reason)].Inc()
	if retry < time.Second {
		retry = time.Second
	}
	return &ShedError{Class: class, Reason: reason, RetryAfter: retry}
}

// recordService feeds one completed request's duration into the moving
// window; the cached p95 is refreshed every 16 completions (and for each
// of the first few, so estimates exist early).
func (cs *classState) recordService(d time.Duration) {
	cs.svcMu.Lock()
	cs.svc[cs.svcNext] = d
	cs.svcNext = (cs.svcNext + 1) % serviceWindow
	if cs.svcLen < serviceWindow {
		cs.svcLen++
	}
	cs.svcDirty++
	if cs.svcDirty >= 16 || cs.svcLen <= 16 {
		cs.svcDirty = 0
		buf := make([]time.Duration, cs.svcLen)
		copy(buf, cs.svc[:cs.svcLen])
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		cs.svcP95 = buf[(len(buf)*95)/100]
	}
	cs.svcMu.Unlock()
}

// p95 returns the cached moving p95 service time (0 until measurements
// exist, which disables deadline shedding rather than guessing).
func (cs *classState) p95() time.Duration {
	cs.svcMu.Lock()
	defer cs.svcMu.Unlock()
	return cs.svcP95
}

// ClassStats is one class's slice of the Stats snapshot. The tagged
// fields are p3_admission_* series labeled with the class
// (metrics.Export); Shed is the sum of the per-reason
// p3_admission_shed_total series.
type ClassStats struct {
	Admitted     uint64  `json:"admitted" metric:"counter" help:"Requests admitted past the admission layer, by class."`
	Queued       uint64  `json:"queued" metric:"counter" help:"Admitted requests that had to wait in the class queue first."`
	Shed         uint64  `json:"shed"`
	QueueDepth   int     `json:"queue_depth" metric:"gauge" help:"Requests currently waiting in the class queue."`
	P95ServiceMs float64 `json:"p95_service_ms"`
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
		Admitted:     cs.admitted.Value(),
		Queued:       cs.queued.Value(),
		Shed:         shed,
		QueueDepth:   depth,
		P95ServiceMs: float64(cs.p95()) / float64(time.Millisecond),
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
		s.ClampedKeys, s.StormActive = c.storm.snapshot()
	}
	return s
}

// --- per-client token buckets -----------------------------------------

// bucket is one client's token bucket. Guarded by bucketLRU.mu — bucket
// churn is bounded by the request rate and the critical section is tiny.
type bucket struct {
	key    string
	tokens float64
	last   time.Time
}

// bucketCost approximates one bucket's memory footprint for the LRU
// budget: the struct, the map and list bookkeeping, and the key bytes.
func bucketCost(key string) int64 { return int64(len(key)) + 96 }

// bucketLRU is a bytes-bounded LRU of client token buckets: hot clients
// stay resident, idle ones age out, total memory stays flat no matter how
// many distinct client keys flow past.
type bucketLRU struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     list.List // of *bucket, front = most recent
	items  map[string]*list.Element
}

func newBucketLRU(budget int64) *bucketLRU {
	return &bucketLRU{budget: budget, items: make(map[string]*list.Element)}
}

// take refills the client's bucket to now and consumes one token,
// reporting (false, wait-until-a-token-accrues) when empty. A brand-new
// (or evicted-and-recreated) bucket starts full — an LRU eviction can
// therefore hand a patient attacker a fresh burst, which is exactly the
// storm detector's job to catch.
func (l *bucketLRU) take(key string, rps, burst float64, now time.Time) (ok bool, wait time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b *bucket
	if el, found := l.items[key]; found {
		l.ll.MoveToFront(el)
		b = el.Value.(*bucket)
		b.tokens = min(burst, b.tokens+now.Sub(b.last).Seconds()*rps)
		b.last = now
	} else {
		b = &bucket{key: key, tokens: burst, last: now}
		l.items[key] = l.ll.PushFront(b)
		l.bytes += bucketCost(key)
		for l.bytes > l.budget && l.ll.Len() > 1 {
			el := l.ll.Back()
			old := el.Value.(*bucket)
			l.ll.Remove(el)
			delete(l.items, old.key)
			l.bytes -= bucketCost(old.key)
		}
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / rps * float64(time.Second))
}

// len reports how many buckets are resident (tests).
func (l *bucketLRU) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len()
}
