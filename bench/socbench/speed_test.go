package main

import (
	"math"
	"sync"
	"testing"
)

// TestSpeedometerPhases checks that bursts always sample, ticks sample
// at most once per speedEvery even from several goroutines, and take
// starts a new phase.
func TestSpeedometerPhases(t *testing.T) {
	var s speedometer
	s.burst(3)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.tick()
		}()
	}
	wg.Wait()
	ms := s.take()
	if len(ms) != 3 {
		t.Fatalf("a burst of 3 and ticks right after it took %d samples, want 3", len(ms))
	}
	for _, v := range ms {
		if v <= 0 {
			t.Errorf("kernel time %g ms, want > 0", v)
		}
	}
	if got := s.take(); len(got) != 0 {
		t.Errorf("new phase starts with %d samples", len(got))
	}
	if f := atRef([]float64{0.25, 0.5, 1}); math.Abs(f-1) > 1e-12 {
		t.Errorf("a kernel at its nominal 0.5 ms scales times by %g, want 1", f)
	}
}
