package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 buckets: bucket 0 holds
// non-positive observations, bucket b >= 1 holds values in
// [2^(b-1), 2^b). bits.Len64 of any positive int64 is at most 63, so
// 64 buckets cover the full range with no clamping.
const histBuckets = 64

// Histogram is a race-safe log2-bucketed distribution of int64
// observations — in this repository always nanosecond durations, named
// "<subsystem>.<what>_seconds" and reported in seconds. Like the other
// instruments, the nil Histogram is a no-op: Record/Observe on nil are
// plain nil checks with no allocation, no atomics and no clock reads,
// so hot paths carry them unconditionally (gate-enforced by the obs
// target's zero-alloc test).
//
// The observation *count* is deterministic for any worker-pool size
// whenever the instrumented event is (one table build, one disk probe,
// one window load, one schedule evaluation...). The observed values are
// wall clock, so the per-bucket distribution and the quantiles are
// runtime accidents; Snapshot reports the two apart, and the
// worker-count invariance gate compares counts only.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Record adds one observation; no-op on nil. Non-positive values land
// in bucket 0.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Observe records a duration in nanoseconds; no-op on nil.
func (h *Histogram) Observe(d time.Duration) { h.Record(int64(d)) }

// Count reads the number of observations; zero on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of all observed values; zero on nil.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Merge adds o's observations into h, bucket by bucket, with their
// count and sum; no-op when either is nil. socserve folds each finished
// job's histograms into its server-wide ones this way. The count added
// is that of the buckets read, so h stays consistent with its buckets
// even if o is still recording.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	var n int64
	for b := range o.buckets {
		if v := o.buckets[b].Load(); v != 0 {
			h.buckets[b].Add(v)
			n += v
		}
	}
	h.count.Add(n)
	h.sum.Add(o.sum.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the recorded
// distribution by linear interpolation inside the containing log2
// bucket. Zero on nil or before any observation. The estimate is
// deterministic given the bucket counts.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var local [histBuckets]int64
	total := int64(0)
	for i := range h.buckets {
		local[i] = h.buckets[i].Load()
		total += local[i]
	}
	return bucketQuantile(&local, total, q)
}

// bucketQuantile computes the quantile estimate from a consistent local
// copy of the buckets.
func bucketQuantile(buckets *[histBuckets]int64, total int64, q float64) float64 {
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, n := range buckets {
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketBounds(b)
			frac := float64(rank-cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return 0 // unreachable: rank <= total
}

// bucketBounds returns bucket b's value range [lo, hi] as floats:
// bucket 0 is exactly zero, bucket b >= 1 spans [2^(b-1), 2^b - 1].
func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 0
	}
	lo = math.Ldexp(1, b-1)
	hi = math.Ldexp(1, b) - 1
	return lo, hi
}

// snap copies the histogram into its snapshot form. The bucket counts
// are loaded once and the count/quantiles derived from that single
// copy, so the snap is internally consistent even while recording
// continues.
func (h *Histogram) snap() HistogramSnap {
	var local [histBuckets]int64
	total := int64(0)
	for i := range h.buckets {
		local[i] = h.buckets[i].Load()
		total += local[i]
	}
	sn := HistogramSnap{
		Count:      total,
		SumSeconds: float64(h.sum.Load()) / 1e9,
		P50Seconds: bucketQuantile(&local, total, 0.50) / 1e9,
		P90Seconds: bucketQuantile(&local, total, 0.90) / 1e9,
		P99Seconds: bucketQuantile(&local, total, 0.99) / 1e9,
	}
	for b, n := range local {
		if n != 0 {
			sn.Buckets = append(sn.Buckets, HistogramBucket{Log2: b, Count: n})
		}
	}
	return sn
}

// Histogram returns the named histogram, registering it on first use;
// nil on a nil sink. Names follow the "<subsystem>.<what>_seconds"
// convention — every histogram in this repository records nanosecond
// durations via Observe.
func (s *Sink) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.histograms[name]; ok {
		return h
	}
	if s.histograms == nil {
		s.histograms = make(map[string]*Histogram)
	}
	h := new(Histogram)
	s.histograms[name] = h
	return h
}
