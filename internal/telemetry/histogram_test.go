package telemetry

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets: observations land in the right log2 buckets and
// the count/sum accounting is exact.
func TestHistogramBuckets(t *testing.T) {
	s := New()
	h := s.Histogram("x_seconds")
	if h != s.Histogram("x_seconds") {
		t.Fatal("histogram registry returned distinct instruments for one name")
	}
	h.Record(0)                    // bucket 0
	h.Record(-5)                   // bucket 0 (non-positive)
	h.Record(1)                    // bucket 1: [1,1]
	h.Record(2)                    // bucket 2: [2,3]
	h.Record(3)                    // bucket 2
	h.Record(4)                    // bucket 3: [4,7]
	h.Observe(8 * time.Nanosecond) // bucket 4: [8,15]

	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 0-5+1+2+3+4+8 {
		t.Fatalf("sum = %d, want 13", h.Sum())
	}
	sn := h.snap()
	want := []HistogramBucket{{0, 2}, {1, 1}, {2, 2}, {3, 1}, {4, 1}}
	if len(sn.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", sn.Buckets, want)
	}
	for i, b := range want {
		if sn.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, sn.Buckets[i], b)
		}
	}
}

// TestHistogramQuantile: quantile estimates stay inside the containing
// bucket's bounds and order correctly.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile nonzero")
	}
	// 90 fast observations (~1µs) and 10 slow (~1ms).
	for i := 0; i < 90; i++ {
		h.Record(1000)
	}
	for i := 0; i < 10; i++ {
		h.Record(1_000_000)
	}
	p50, p90, p99 := h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
	if !(p50 >= 512 && p50 <= 1023) {
		t.Fatalf("p50 = %v, want inside [512, 1023] (the 1000ns bucket)", p50)
	}
	if !(p99 >= 524288 && p99 <= 1048575) {
		t.Fatalf("p99 = %v, want inside the 1ms bucket", p99)
	}
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}

	sn := h.snap()
	if sn.Count != 100 {
		t.Fatalf("snap count = %d, want 100", sn.Count)
	}
	if sn.P99Seconds < sn.P50Seconds {
		t.Fatalf("snap quantiles inverted: %+v", sn)
	}
	if sn.SumSeconds != (90*1000+10*1_000_000)/1e9 {
		t.Fatalf("snap sum = %v", sn.SumSeconds)
	}
}

// TestHistogramMerge: merging adds the other histogram's buckets, count
// and sum, as if every observation had been recorded into the target;
// nil on either side is a no-op.
func TestHistogramMerge(t *testing.T) {
	var a, b, want Histogram
	for _, v := range []int64{0, 3, 900, 70_000} {
		a.Record(v)
		want.Record(v)
	}
	for _, v := range []int64{3, 5, 1 << 40} {
		b.Record(v)
		want.Record(v)
	}
	a.Merge(&b)
	a.Merge(nil)
	(*Histogram)(nil).Merge(&b)
	if a.Count() != want.Count() || a.Sum() != want.Sum() {
		t.Fatalf("merged count %d sum %d, want %d and %d", a.Count(), a.Sum(), want.Count(), want.Sum())
	}
	if got, w := a.snap(), want.snap(); !reflect.DeepEqual(got, w) {
		t.Fatalf("merged snap %+v, want %+v", got, w)
	}
	if b.Count() != 3 {
		t.Fatalf("merge changed its source: count %d", b.Count())
	}
}

// TestHistogramEnabledZeroAlloc: recording into a live histogram must
// not allocate — it sits on per-window and per-placement paths.
func TestHistogramEnabledZeroAlloc(t *testing.T) {
	s := New()
	h := s.Histogram("hot_seconds")
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(12345)
		h.Observe(678 * time.Microsecond)
	}); n != 0 {
		t.Fatalf("enabled histogram Record allocates %v/op, want 0", n)
	}
}

// TestHistogramConcurrent: concurrent recording loses nothing (run
// under -race in the tier-1 gate).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < per; i++ {
				h.Record(seed + i)
			}
		}(int64(w * per))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("lost observations: %d, want %d", h.Count(), workers*per)
	}
}

// TestBucketBounds: the bounds used by quantile interpolation partition
// the positive integers.
func TestBucketBounds(t *testing.T) {
	if lo, hi := bucketBounds(0); lo != 0 || hi != 0 {
		t.Fatalf("bucket 0 bounds (%v, %v), want (0, 0)", lo, hi)
	}
	prevHi := 0.0
	for b := 1; b < 20; b++ {
		lo, hi := bucketBounds(b)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d lo = %v, want %v (contiguous)", b, lo, prevHi+1)
		}
		if hi < lo {
			t.Fatalf("bucket %d bounds inverted: %v > %v", b, lo, hi)
		}
		prevHi = hi
	}
}

// TestHistogramInSnapshotAndRender: histograms appear in the JSON
// snapshot and the text report, apart from counters.
func TestHistogramInSnapshotAndRender(t *testing.T) {
	s := New()
	s.Histogram("diskcache.load_seconds").Observe(3 * time.Millisecond)
	s.Histogram("diskcache.load_seconds").Observe(5 * time.Millisecond)
	sn := s.Snapshot()
	hs, ok := sn.Histograms["diskcache.load_seconds"]
	if !ok || hs.Count != 2 {
		t.Fatalf("snapshot histograms: %+v", sn.Histograms)
	}
	if _, ok := sn.Counters["diskcache.load_seconds"]; ok {
		t.Fatal("histogram leaked into the counter map")
	}
}
