package metrics

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramPercentiles checks the percentile estimates against a known
// distribution. Buckets are factor-of-2 wide, so the estimate of a true
// quantile q must land within [q/2, 2q].
func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	// Uniform 1..1000 ms, every value observed once: the true q-th
	// percentile of the distribution is q*1000 ms.
	for ms := 1; ms <= 1000; ms++ {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	wantSum := time.Duration(1000*1001/2) * time.Millisecond
	if s.Sum != wantSum {
		t.Errorf("Sum = %v, want %v", s.Sum, wantSum)
	}
	checks := []struct {
		name string
		got  time.Duration
		want time.Duration
	}{
		{"p50", s.P50, 500 * time.Millisecond},
		{"p95", s.P95, 950 * time.Millisecond},
		{"p99", s.P99, 990 * time.Millisecond},
	}
	for _, c := range checks {
		lo, hi := c.want/2, c.want*2
		if c.got < lo || c.got > hi {
			t.Errorf("%s = %v, want within [%v, %v] of true %v", c.name, c.got, lo, hi, c.want)
		}
	}
}

// TestHistogramExactAtBoundaries pins the interpolation: observations all
// in one bucket whose edges are known must interpolate inside that bucket.
func TestHistogramExactAtBoundaries(t *testing.T) {
	var h Histogram
	// 100 observations of exactly 1024ns: bucket (512, 1024].
	for i := 0; i < 100; i++ {
		h.Observe(1024 * time.Nanosecond)
	}
	s := h.Snapshot()
	if s.P50 < 512 || s.P50 > 1024 {
		t.Errorf("P50 = %v, want within (512ns, 1024ns]", s.P50)
	}
	if s.P99 < 512 || s.P99 > 1024 {
		t.Errorf("P99 = %v, want within (512ns, 1024ns]", s.P99)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.P50 != 0 || s.P99 != 0 || s.Mean() != 0 {
		t.Errorf("empty histogram snapshot not all-zero: %+v", s)
	}
}

// TestHistogramSkewed checks percentiles on a long-tailed mix, the shape
// serving latencies actually have: 99 fast ops, 1 slow one.
func TestHistogramSkewed(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(1 * time.Millisecond)
	}
	h.Observe(2 * time.Second)
	s := h.Snapshot()
	if s.P50 > 2*time.Millisecond {
		t.Errorf("P50 = %v, want ~1ms", s.P50)
	}
	// p99 of 100 observations ranks at the 99th — still a fast op.
	if s.P99 > 2*time.Millisecond {
		t.Errorf("P99 = %v, want ~1ms", s.P99)
	}
}

// TestConcurrentIncrements hammers one counter and histogram from many
// goroutines (run under -race in CI) and checks the totals are exact.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("p3_test_ops_total", "test counter")
	h := r.Histogram("p3_test_latency_seconds", "test histogram")
	const workers = 16
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(time.Duration(rng.Intn(1000)) * time.Microsecond)
				// Concurrent lookups of the same series must return the
				// same instrument, not race on registration.
				if r.Counter("p3_test_ops_total", "test counter") != c {
					panic("lookup returned a different counter")
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Snapshot().Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestLabeledSeries checks that labels address distinct series and render
// in the exposition.
func TestLabeledSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("p3_cache_hits_total", "cache hits", Label{"cache", "secrets"})
	b := r.Counter("p3_cache_hits_total", "cache hits", Label{"cache", "variants"})
	if a == b {
		t.Fatal("differently labeled series share a counter")
	}
	a.Add(3)
	b.Add(7)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE p3_cache_hits_total counter",
		`p3_cache_hits_total{cache="secrets"} 3`,
		`p3_cache_hits_total{cache="variants"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestExpositionHistogram checks the cumulative-bucket rendering: le edges
// in seconds, monotone cumulative counts, +Inf equal to _count.
func TestExpositionHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("p3_codec_split_seconds", "split wall time", Label{"op", "split"})
	h.Observe(100 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE p3_codec_split_seconds histogram",
		`p3_codec_split_seconds_bucket{op="split",le="+Inf"} 3`,
		`p3_codec_split_seconds_count{op="split"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sum = 6.1ms within float rendering.
	if !strings.Contains(out, `p3_codec_split_seconds_sum{op="split"} 0.0061`) {
		t.Errorf("exposition missing sum ~0.0061:\n%s", out)
	}
}

// shardReads is a one-counter snapshot for TestCounterAndGaugeFuncs.
type shardReads struct {
	Reads uint64 `json:"reads" metric:"counter" help:"reads"`
}

// TestCounterAndGaugeFuncs checks that a counter (through Export) and a
// gauge func are read at scrape time, and that re-registering a series
// replaces its func.
func TestCounterAndGaugeFuncs(t *testing.T) {
	r := NewRegistry()
	n := uint64(41)
	Export(r, "p3_shard", func() shardReads { return shardReads{n} }, Label{"shard", "0"})
	b := 1.5e6
	r.SetGaugeFunc("p3_cache_bytes", "bytes held", func() float64 { return b }, Label{"cache", "variants"})
	n++
	out := exposition(t, r)
	if !strings.Contains(out, `p3_shard_reads_total{shard="0"} 42`) {
		t.Errorf("counter func not read at scrape time:\n%s", out)
	}
	if !strings.Contains(out, `p3_cache_bytes{cache="variants"} 1.5e+06`) {
		t.Errorf("gauge func missing:\n%s", out)
	}
	b = 2e6
	if out := exposition(t, r); !strings.Contains(out, `p3_cache_bytes{cache="variants"} 2e+06`) {
		t.Errorf("gauge func not read at scrape time:\n%s", out)
	}
	// Replacement must swap the closure, not add a second series.
	r.SetGaugeFunc("p3_cache_bytes", "bytes held", func() float64 { return 100 }, Label{"cache", "variants"})
	out = exposition(t, r)
	if got := strings.Count(out, "p3_cache_bytes{"); got != 1 {
		t.Errorf("replaced func produced %d series, want 1", got)
	}
	if !strings.Contains(out, `p3_cache_bytes{cache="variants"} 100`) {
		t.Errorf("replacement not visible:\n%s", out)
	}
}

// TestTypeMismatchPanics pins the fail-fast behavior on name reuse across
// metric types — always a programming error worth crashing on.
func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("p3_thing_total", "a counter")
	defer func() {
		if recover() == nil {
			t.Error("reusing a counter name as a gauge did not panic")
		}
	}()
	r.SetGaugeFunc("p3_thing_total", "now a gauge?", func() float64 { return 0 })
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{2, 1},
		{3, 2},
		{4, 2},
		{5, 3},
		{1024, 10},
		{time.Hour, histBuckets},
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	if !math.IsInf(bucketUpper(histBuckets), 1) {
		t.Error("overflow bucket upper bound not +Inf")
	}
}
