package main

import (
	"math"
	"testing"
	"time"
)

const sec = int64(time.Second)

// TestAttributeSplitsConcurrentRequests charges overlapping requests
// half of each shared instant, their children their own time, and the
// uncovered rest to bench.idle — and the total to the window.
func TestAttributeSplitsConcurrentRequests(t *testing.T) {
	spans := []span{
		{Name: "http.request", Start: 0, End: 10 * sec, Parent: -1},
		{Name: "http.request", Start: 5 * sec, End: 15 * sec, Parent: -1},
		{Name: "serve.job", Start: 2 * sec, End: 4 * sec, Parent: 0},
	}
	got := attribute(spans, 0, 20*sec)
	want := map[string]float64{"serve.wait": 13, "serve.job": 2, "bench.idle": 5}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("%s = %g s, want %g s", l, got[l], w)
		}
	}
	if total := sum(values(got)); math.Abs(total-20) > 1e-9 {
		t.Errorf("attributed %g s of a 20 s window", total)
	}
	self := selfTimes(spans, 0, 20*sec)
	if self["serve.wait"] != 18 || self["serve.job"] != 2 {
		t.Errorf("self times %v, want serve.wait 18 s (counted per request), serve.job 2 s", self)
	}
}

// selfTimes sums, per layer, each span's duration minus its children's
// — the classic self time, which equals the window's wall time only
// when one op runs at a time.
func selfTimes(spans []span, w0, w1 int64) map[string]float64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.Start < w0 || s.End > w1 {
			continue
		}
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		if s.Start >= w0 && s.End <= w1 {
			out[layerOf(s.Name)] += float64(self[i]) / 1e9
		}
	}
	return out
}

func values(m map[string]float64) []float64 {
	var xs []float64
	for _, v := range m {
		xs = append(xs, v)
	}
	return xs
}

// TestSelfTimesSumToWallTime traces the sequential workloads and checks
// that the layers' self times account for the timed wall time within 5%
// — every stretch of the run sits inside some traced call — and that
// the shares, which split concurrent time, sum to exactly the window.
func TestSelfTimesSumToWallTime(t *testing.T) {
	for name, wl := range map[string]func(*runner) error{"plan-warm": planWarm, "verify": verifyPlans} {
		r := newRunner(name, 1, 300*time.Millisecond, true, true)
		if err := wl(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r.close()
		spans, _ := r.tr.snapshot()
		w0, w1 := r.tr.ns(r.t0), r.tr.ns(r.t1)
		wall := float64(w1-w0) / 1e9
		if self := sum(values(selfTimes(spans, w0, w1))); math.Abs(self-wall) > 0.05*wall {
			t.Errorf("%s: self times sum to %.4f s of %.4f s wall time", name, self, wall)
		}
		if shares := sum(values(attribute(spans, w0, w1))); math.Abs(shares-wall) > 1e-6 {
			t.Errorf("%s: shares sum to %.6f s of %.6f s wall time", name, shares, wall)
		}
	}
}
