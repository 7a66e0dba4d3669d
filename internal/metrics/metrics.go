// Package metrics is the serving path's lock-cheap instrumentation layer:
// atomic counters and gauges, log-scale latency histograms with percentile
// snapshots, and a registry that renders everything as Prometheus-style
// text exposition.
//
// The design optimizes the write side — every proxy download, cache probe
// and codec call records through a single atomic add, no locks and no
// allocation — because instruments sit on hot paths serving high request
// rates, while reads (a /metrics scrape, a Stats snapshot) are rare and may
// pay for consistency.
//
// Instruments are obtained from a Registry by name plus optional labels;
// repeated lookups of the same (name, labels) return the same instrument,
// so independently constructed components share series naturally.
// Counters and gauges that a subsystem's Stats snapshot already reports
// are not instruments: Export turns the snapshot's tagged fields into
// scrape-time series. The package-level Default registry is what
// cmd/p3proxy serves on GET /metrics; components built for tests can be
// pointed at a private NewRegistry instead.
//
// The one naming scheme used across the repo (documented in
// ARCHITECTURE.md): metrics are prefixed p3_, cumulative counters end in
// _total, histograms record seconds and end in _seconds, and instance
// dimensions (which cache, which shard, which proxy) are labels, never
// name suffixes.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing cumulative count. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways. The zero value
// is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of finite histogram buckets. Bucket i holds
// observations in (2^(i-1), 2^i] nanoseconds, so the finite range spans
// 1ns to 2^39 ns ≈ 550 s — comfortably past any serving-path latency —
// with a factor-of-2 resolution everywhere on the log scale. Anything
// larger lands in the overflow (+Inf) bucket.
const histBuckets = 40

// Histogram is a log-scale latency histogram. Observations cost one atomic
// add each; Snapshot walks the buckets to estimate percentiles. The zero
// value is ready to use.
type Histogram struct {
	counts   [histBuckets + 1]atomic.Uint64 // last bucket is +Inf overflow
	sumNanos atomic.Int64
}

// bucketFor returns the index of the bucket covering d: the smallest i with
// d <= 2^i nanoseconds.
func bucketFor(d time.Duration) int {
	ns := uint64(d.Nanoseconds())
	if ns <= 1 {
		return 0
	}
	i := bits.Len64(ns - 1) // ceil(log2(ns))
	if i > histBuckets {
		return histBuckets // +Inf
	}
	return i
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketFor(d)].Add(1)
	h.sumNanos.Add(d.Nanoseconds())
}

// HistogramSnapshot is a point-in-time summary of a Histogram.
type HistogramSnapshot struct {
	Count         uint64
	Sum           time.Duration
	P50, P95, P99 time.Duration
}

// Mean returns the average observed duration, or 0 with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Snapshot returns the current count, sum and estimated percentiles.
// Percentiles are linearly interpolated inside the covering log-scale
// bucket, so the estimate is exact at bucket boundaries and off by at most
// the bucket width (a factor of 2) in between. Concurrent Observes make the
// snapshot approximate, never torn in a way that crashes.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets + 1]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total, Sum: time.Duration(h.sumNanos.Load())}
	if total == 0 {
		return s
	}
	s.P50 = quantile(&counts, total, 0.50)
	s.P95 = quantile(&counts, total, 0.95)
	s.P99 = quantile(&counts, total, 0.99)
	return s
}

// bucketUpper returns the inclusive upper bound of bucket i in nanoseconds.
func bucketUpper(i int) float64 {
	if i >= histBuckets {
		return math.Inf(1)
	}
	return float64(uint64(1) << uint(i))
}

// quantile estimates the q-th quantile from a loaded bucket array.
func quantile(counts *[histBuckets + 1]uint64, total uint64, q float64) time.Duration {
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i := range counts {
		n := float64(counts[i])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lower := 0.0
			if i > 0 {
				lower = bucketUpper(i - 1)
			}
			upper := bucketUpper(i)
			if math.IsInf(upper, 1) {
				// Overflow bucket has no finite upper edge; report its lower
				// edge rather than inventing a number.
				return time.Duration(lower)
			}
			frac := (rank - cum) / n
			return time.Duration(lower + (upper-lower)*frac)
		}
		cum += n
	}
	return time.Duration(bucketUpper(histBuckets - 1))
}

// CounterFunc is a monotonically increasing count read from elsewhere at
// scrape time; Export builds one per tagged counter field.
type CounterFunc func() uint64

// GaugeFunc is an instantaneous value read from elsewhere at scrape time;
// Export builds one per tagged gauge field.
type GaugeFunc func() float64

// Label is one key=value dimension of a metric series.
type Label struct {
	Key, Value string
}

// instrument is anything a series can hold.
type instrument interface{}

// series is one labeled instance of a metric family.
type series struct {
	labels string // rendered `{k="v",...}` form, "" when unlabeled
	inst   instrument
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series map[string]*series
	order  []string // label strings in first-registration order
}

// Registry is a named collection of metric families. All methods are safe
// for concurrent use. Construct with NewRegistry, or use Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Default is the process-wide registry: the root codec's split/join timings
// land here, proxies register here unless given a private registry, and
// cmd/p3proxy serves it on GET /metrics.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels renders labels in the given order as `{k="v",k2="v2"}`.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		for _, r := range l.Value {
			switch r {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteRune(r)
			}
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns (creating if needed) the series for (name, labels),
// installing newInst when the series does not exist yet. It panics when the
// name is reused at a different metric type — always a programming error.
func (r *Registry) lookup(name, help, typ string, labels []Label, newInst func() instrument) instrument {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, inst: newInst()}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s.inst
}

// Counter returns the counter for (name, labels), creating and registering
// it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	inst := r.lookup(name, help, "counter", labels, func() instrument { return new(Counter) })
	c, ok := inst.(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %s%s is not a Counter", name, renderLabels(labels)))
	}
	return c
}

// Gauge returns the gauge for (name, labels), creating and registering it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	inst := r.lookup(name, help, "gauge", labels, func() instrument { return new(Gauge) })
	g, ok := inst.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %s%s is not a Gauge", name, renderLabels(labels)))
	}
	return g
}

// Histogram returns the histogram for (name, labels), creating and
// registering it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	inst := r.lookup(name, help, "histogram", labels, func() instrument { return new(Histogram) })
	h, ok := inst.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("metrics: %s%s is not a Histogram", name, renderLabels(labels)))
	}
	return h
}

// SetCounterFunc registers (or replaces) a counter series whose value is
// read by calling fn at scrape time. Replacement semantics let a component
// re-register its view after reconstruction without leaking dead closures.
func (r *Registry) SetCounterFunc(name, help string, fn CounterFunc, labels ...Label) {
	r.setFunc(name, help, "counter", fn, labels)
}

// SetGaugeFunc registers (or replaces) a gauge series read from fn at
// scrape time.
func (r *Registry) SetGaugeFunc(name, help string, fn GaugeFunc, labels ...Label) {
	r.setFunc(name, help, "gauge", fn, labels)
}

func (r *Registry) setFunc(name, help, typ string, fn instrument, labels []Label) {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	if s, ok := f.series[key]; ok {
		s.inst = fn
		return
	}
	f.series[key] = &series{labels: key, inst: fn}
	f.order = append(f.order, key)
}

// WritePrometheus renders every family in the text exposition format
// Prometheus scrapes: # HELP / # TYPE headers, one line per series,
// histograms as cumulative le-labeled buckets plus _sum and _count.
// Families are sorted by name for stable output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the family/series structure under the lock; instrument reads
	// happen outside it (they are atomic or caller-supplied funcs).
	type seriesView struct {
		labels string
		inst   instrument
	}
	type familyView struct {
		name, help, typ string
		series          []seriesView
	}
	views := make([]familyView, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		fv := familyView{name: f.name, help: f.help, typ: f.typ}
		for _, key := range f.order {
			fv.series = append(fv.series, seriesView{labels: key, inst: f.series[key].inst})
		}
		views = append(views, fv)
	}
	r.mu.Unlock()

	for _, f := range views {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f.name, s.labels, s.inst); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a metric value the way Prometheus expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSeries(w io.Writer, name, labels string, inst instrument) error {
	switch m := inst.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, m.Value())
		return err
	case CounterFunc:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, m())
		return err
	case GaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(m()))
		return err
	case *Histogram:
		return writeHistogram(w, name, labels, m)
	default:
		return fmt.Errorf("metrics: unknown instrument type %T for %s", inst, name)
	}
}

// writeHistogram renders cumulative buckets in seconds. Empty leading and
// trailing buckets are elided (the cumulative counts are unambiguous
// without them), keeping the exposition compact; the +Inf bucket is always
// emitted, as the format requires.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	var counts [histBuckets + 1]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	first, last := 0, histBuckets-1
	for first < histBuckets && counts[first] == 0 {
		first++
	}
	for last >= first && counts[last] == 0 {
		last--
	}
	// labelJoin splices the le label into an existing label set.
	labelJoin := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + le + `"}`
	}
	var cum uint64
	for i := first; i <= last; i++ {
		cum += counts[i]
		le := formatFloat(bucketUpper(i) / 1e9)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelJoin(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelJoin("+Inf"), total); err != nil {
		return err
	}
	sum := float64(h.sumNanos.Load()) / 1e9
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, total)
	return err
}
