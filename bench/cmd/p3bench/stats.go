package main

import (
	"slices"
	"sort"
)

// latencies keeps every sample of one op class exactly: microsecond-scale
// samples as counts per nanosecond (millions of cache hits need neither a
// slice nor a sort), anything longer verbatim.
type latencies struct {
	small [smallNs]uint32
	large []int64
	n     int64
	sum   int64
}

const smallNs = 1 << 17 // samples under 131 µs are counted per nanosecond

func (l *latencies) add(ns int64) {
	l.n++
	l.sum += ns
	if ns >= 0 && ns < smallNs {
		l.small[ns]++
	} else {
		l.large = append(l.large, ns)
	}
}

func (l *latencies) merge(o *latencies) {
	for i, c := range o.small {
		l.small[i] += c
	}
	l.large = append(l.large, o.large...)
	l.n += o.n
	l.sum += o.sum
}

// percentile returns the nearest-rank p-th percentile in nanoseconds. A
// rank that falls among the samples counted in one nanosecond bucket is
// placed proportionally inside that nanosecond, so a hot-path median does
// not read identically on every run.
func (l *latencies) percentile(p float64) float64 {
	if l.n == 0 {
		return 0
	}
	rank := min(int64(p/100*float64(l.n)), l.n-1) // 0-based
	seen := int64(0)
	for ns, c := range l.small {
		if c > 0 && seen+int64(c) > rank {
			return float64(ns) + (float64(rank-seen)+0.5)/float64(c)
		}
		seen += int64(c)
	}
	slices.Sort(l.large)
	return float64(l.large[rank-seen])
}

func (l *latencies) mean() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.sum) / float64(l.n)
}

// tailPercentile picks the highest percentile a sample of n supports: the
// highest of 50/90/95/99/99.9 with at least ten samples beyond it.
func tailPercentile(n int64) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if float64(n)*(100-p) >= 1000-1e-6 { // ten samples beyond p, whatever the rounding of 100−p
			best = p
		}
	}
	return best
}

// median of a small slice (0 when empty).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}
