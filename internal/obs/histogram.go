package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram: bucket counts plus a running
// sum, all atomics, so Observe never takes a lock. Bucket bounds are
// chosen at registration and never change, which is what keeps the hot
// path to one compare-loop, one atomic add and one uncontended CAS.
//
// Like Counter, the cells are sharded by the shardFor stack hint: each
// shard holds a full set of bucket counts and its own sum on cache lines
// of its own, so connection goroutines observing the same histogram do
// not serialize on one word. Readers add the shards up.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	// cells is counterShards runs of stride words: len(bounds)+1 bucket
	// counts (the last is the +Inf bucket), then the shard's sum as
	// float64 bits, padded to whole cache lines.
	cells  []atomic.Uint64
	stride int
}

func newHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram buckets must be sorted ascending")
	}
	// An explicit trailing +Inf bound would duplicate the implicit +Inf
	// bucket in the exposition (two le="+Inf" lines, invalid Prometheus
	// text format) — fold it into the implicit one instead.
	for len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], +1) {
		bounds = bounds[:len(bounds)-1]
	}
	const lineWords = 8
	stride := (len(bounds) + 2 + lineWords - 1) / lineWords * lineWords
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		cells:  make([]atomic.Uint64, counterShards*stride),
		stride: stride,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	shard := h.cells[shardFor()*h.stride:]
	shard[i].Add(1)
	sum := &shard[len(h.bounds)+1]
	for {
		old := sum.Load()
		if sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// bucket returns bucket i's count, summed over the shards.
func (h *Histogram) bucket(i int) uint64 {
	var n uint64
	for s := 0; s < counterShards; s++ {
		n += h.cells[s*h.stride+i].Load()
	}
	return n
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := 0; i <= len(h.bounds); i++ {
		n += h.bucket(i)
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	var sum float64
	for s := 0; s < counterShards; s++ {
		sum += math.Float64frombits(h.cells[s*h.stride+len(h.bounds)+1].Load())
	}
	return sum
}

// Mean returns the average observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear
// interpolation within the bucket that holds the target rank — the same
// estimate Prometheus' histogram_quantile computes. Returns 0 with no
// observations. A rank landing in the +Inf bucket returns the highest
// finite bound (the estimate is a floor, not an extrapolation).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, b := range h.bounds {
		c := h.bucket(i)
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if c == 0 {
				// The cumulative rank landed exactly on this bucket's
				// boundary but the bucket itself is empty: every counted
				// observation sits at or below the previous finite bound.
				// Returning b here would report an empty bucket's upper
				// bound, inflating the quantile for data it never held.
				return lo
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (b-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// writeTo renders the Prometheus histogram series (cumulative _bucket
// lines, then _sum and _count), merging the series labels with le.
func (h *Histogram) writeTo(w io.Writer, name, labels string) {
	inner := ""
	if len(labels) > 2 { // strip the braces of a non-empty label set
		inner = labels[1:len(labels)-1] + ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.bucket(i)
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, inner, formatFloat(b), cum)
	}
	cum += h.bucket(len(h.bounds))
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, inner, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}

// LatencyBuckets is the default bucket ladder for operation latencies in
// seconds: 1µs to ~1s in ×4 steps.
var LatencyBuckets = []float64{1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1}

// ByteBuckets is the default bucket ladder for sizes in bytes: 64 B to
// 1 MiB in ×4 steps.
var ByteBuckets = []float64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
