package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: exact below 128
// ns, then 64 buckets per power of two (under 1.6% wide). Quantiles
// interpolate inside a bucket.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const histBuckets = 128 + 64*40 // up to 2^47 ns, about 39 hours

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	i := v
	if v >= 128 {
		shift := uint(bits.Len64(v)) - 7
		i = 128 + uint64(shift-1)*64 + (v>>shift - 64)
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// bucketBounds returns bucket i's lowest value and width.
func bucketBounds(i int) (lo, width float64) {
	if i < 128 {
		return float64(i), 1
	}
	shift := uint((i-128)/64 + 1)
	return float64(uint64(64+(i-128)%64) << shift), float64(uint64(1) << shift)
}

// quantile returns the q-quantile in nanoseconds, 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := bucketBounds(i)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, width := bucketBounds(histBuckets - 1)
	return lo + width
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// spread is (max-min)/median: how far one run's own windows disagree.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}

// ratio is a/b, 0 when b is 0: a layer that saw no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
