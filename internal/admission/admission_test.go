package admission

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p3/internal/metrics"
)

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg, metrics.NewRegistry(), "test")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAdmitReleaseBasics: a free controller admits immediately, the
// release frees the slot, and release is idempotent.
func TestAdmitReleaseBasics(t *testing.T) {
	c := newTestController(t, Config{MaxInflight: 1})
	release, err := c.Admit(context.Background(), Cached, "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Inflight; got != 1 {
		t.Fatalf("inflight = %d, want 1", got)
	}
	release()
	release() // idempotent
	if got := c.Stats().Inflight; got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
	if got := c.Stats().Cached.Admitted; got != 1 {
		t.Fatalf("cached admitted = %d, want 1", got)
	}
}

// TestQueueFullSheds: with the slot held and the queue at its bound, the
// next request is shed with reason queue_full and a RetryAfter of
// max(1s, the class's queue-wait p95).
func TestQueueFullSheds(t *testing.T) {
	c := newTestController(t, Config{MaxInflight: 1, QueueDepth: 2})
	release, err := c.Admit(context.Background(), Cold, "holder")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rel, err := c.Admit(ctx, Cold, "waiter"); err == nil {
				rel()
			}
		}()
	}
	waitFor(t, func() bool { return c.Stats().Cold.QueueDepth == 2 })
	overflow := func() time.Duration {
		t.Helper()
		_, err := c.Admit(context.Background(), Cold, "overflow")
		var shed *ShedError
		if !errors.As(err, &shed) || shed.Reason != ReasonQueueFull {
			t.Fatalf("err = %v, want ShedError{queue_full}", err)
		}
		return shed.RetryAfter
	}
	// No queue wait observed yet: the hint is the one-second floor.
	if got := overflow(); got != time.Second {
		t.Fatalf("RetryAfter with no observed waits = %v, want 1s", got)
	}
	// Past the floor the hint is the class's queue-wait p95.
	wait := c.classes[Cold].waitHist
	for i := 0; i < 20; i++ {
		wait.Observe(3 * time.Second)
	}
	p95 := wait.Snapshot().P95
	if p95 <= time.Second {
		t.Fatalf("queue-wait p95 = %v, test premise needs > 1s", p95)
	}
	if got := overflow(); got != p95 {
		t.Fatalf("RetryAfter = %v, want the cold queue-wait p95 %v", got, p95)
	}
	release()
	wg.Wait()
}

// TestPriorityDrainOrder: queued cached requests are granted before cold,
// and cold before calibrate, regardless of enqueue order.
func TestPriorityDrainOrder(t *testing.T) {
	c := newTestController(t, Config{MaxInflight: 1, QueueDepth: 8})
	release, err := c.Admit(context.Background(), Cold, "holder")
	if err != nil {
		t.Fatal(err)
	}
	var order []Class
	var mu sync.Mutex
	var wg sync.WaitGroup
	enqueue := func(cl Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := c.Admit(context.Background(), cl, "w")
			if err != nil {
				t.Errorf("class %v shed: %v", cl, err)
				return
			}
			mu.Lock()
			order = append(order, cl)
			mu.Unlock()
			rel()
		}()
		// Each waiter must be queued before the next enqueues, so the
		// enqueue order (worst-priority first) is deterministic.
		waitFor(t, func() bool {
			s := c.Stats()
			return s.Cached.QueueDepth+s.Cold.QueueDepth+s.Calibrate.QueueDepth == queued(cl)
		})
	}
	for _, cl := range []Class{Calibrate, Cold, Cached} {
		enqueue(cl)
	}
	release()
	wg.Wait()
	want := []Class{Cached, Cold, Calibrate}
	for i, cl := range want {
		if order[i] != cl {
			t.Fatalf("drain order = %v, want %v", order, want)
		}
	}
}

// queued tracks how many waiters the priority test expects after
// enqueueing up to class cl in its Calibrate, Cold, Cached order.
func queued(cl Class) int {
	switch cl {
	case Calibrate:
		return 1
	case Cold:
		return 2
	default:
		return 3
	}
}

// TestAdmissionHammer is the -race hammer the admission queue is pinned
// by: N goroutines across all classes with randomized deadlines. Checked
// invariants:
//   - every request resolves exactly once, as either admitted or shed
//     (never both: Admit's return shape enforces it, the accounting here
//     proves totals add up);
//   - concurrent execution never exceeds MaxInflight;
//   - per-class queue depth never exceeds QueueDepth;
//   - every shed request carries a ShedError response with RetryAfter.
func TestAdmissionHammer(t *testing.T) {
	const (
		maxInflight = 4
		queueDepth  = 8
		goroutines  = 24
		perG        = 200
	)
	c := newTestController(t, Config{MaxInflight: maxInflight, QueueDepth: queueDepth})

	var (
		running   atomic.Int64
		overMax   atomic.Int64
		admitted  atomic.Int64
		shedCount atomic.Int64
		badShed   atomic.Int64
	)
	stopWatch := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		// Depth watcher: the gauge must never exceed the configured bound.
		defer watchWG.Done()
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			s := c.Stats()
			for _, d := range []int{s.Cached.QueueDepth, s.Cold.QueueDepth, s.Calibrate.QueueDepth} {
				if d > queueDepth {
					overMax.Add(1)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				class := Class(rng.Intn(int(numClasses)))
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(2) == 0 {
					// Randomized deadlines, some short enough to expire
					// while queued.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(2000))*time.Microsecond)
				}
				release, err := c.Admit(ctx, class, "hammer")
				switch {
				case err == nil:
					if n := running.Add(1); n > maxInflight {
						overMax.Add(1)
					}
					admitted.Add(1)
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					running.Add(-1)
					release()
				default:
					shedCount.Add(1)
					var shed *ShedError
					if !errors.As(err, &shed) || shed.RetryAfter < time.Second {
						badShed.Add(1)
					}
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	close(stopWatch)
	watchWG.Wait()

	total := admitted.Load() + shedCount.Load()
	if want := int64(goroutines * perG); total != want {
		t.Errorf("resolved %d requests, issued %d — some request was lost or double-counted", total, want)
	}
	if n := overMax.Load(); n != 0 {
		t.Errorf("%d observations exceeded MaxInflight/QueueDepth bounds", n)
	}
	if n := badShed.Load(); n != 0 {
		t.Errorf("%d shed requests lacked a proper ShedError response", n)
	}
	s := c.Stats()
	if got := s.Cached.Admitted + s.Cold.Admitted + s.Calibrate.Admitted; got != uint64(admitted.Load()) {
		t.Errorf("admitted counters = %d, observed %d", got, admitted.Load())
	}
	var statShed uint64
	for _, v := range s.ShedByReason {
		statShed += v
	}
	if statShed != uint64(shedCount.Load()) {
		t.Errorf("shed counters = %d, observed %d", statShed, shedCount.Load())
	}
	if s.Inflight != 0 {
		t.Errorf("inflight = %d after quiescence, want 0", s.Inflight)
	}
	if d := s.Cached.QueueDepth + s.Cold.QueueDepth + s.Calibrate.QueueDepth; d != 0 {
		t.Errorf("queue depth = %d after quiescence, want 0", d)
	}
}

// TestCancelWhileQueuedIsAnswered: a waiter whose context dies in the
// queue gets a deadline ShedError, and the queue forgets it.
func TestCancelWhileQueuedIsAnswered(t *testing.T) {
	c := newTestController(t, Config{MaxInflight: 1, QueueDepth: 4})
	release, err := c.Admit(context.Background(), Cold, "holder")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, Cold, "w")
		done <- err
	}()
	waitFor(t, func() bool { return c.Stats().Cold.QueueDepth == 1 })
	cancel()
	err = <-done
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonDeadline {
		t.Fatalf("cancelled waiter got %v, want ShedError{deadline}", err)
	}
	if d := c.Stats().Cold.QueueDepth; d != 0 {
		t.Fatalf("queue depth = %d after cancellation, want 0", d)
	}
	release()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
