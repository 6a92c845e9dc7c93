package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark was calibrated on, a 2-vCPU virtual
// machine shared with other tenants, changes speed by up to a third in
// phases lasting tens of seconds. The thread CPU time of an op follows
// its wall time through those phases, so CPU time does not remove the
// drift. A fixed kernel of the benchmark's own, run between ops on the
// goroutine that runs them, slows with them. Every end-to-end time is
// therefore reported at reference speed: its wall time times refNominal
// over the kernel's median time in the same phase of the same run. Over
// 40 windows of 15 s, that took the spread of verify's ops from 14.5%
// to 3.8% and of search-only ops from 15.2% to 4.6%. Two variants
// tracked worse. One ran the kernel on a goroutine of its own, next to
// the ops: the two vCPUs do not slow together. The other ran it over a
// table of 1 MiB or more, so its speed depended on what the op before
// it had left in the caches.

// refNominal is the thread CPU time the reference kernel takes at the
// reference speed.
const refNominal = 500 * time.Microsecond

// speedEvery is the least time between two samples taken by tick:
// about 1% of one CPU.
const speedEvery = 50 * time.Millisecond

// refTableWords sizes the kernel's table: 64 KiB, which a core's
// private caches hold, so the kernel runs as fast after an op that
// evicted it as after one that did not.
const refTableWords = 1 << 13

// refTable is the kernel's table. As a package variable it is not part
// of the Go heap, so heap_mib does not count it.
var refTable [refTableWords]uint64

// refIters is how many steps make one run of the reference kernel,
// about refNominal on the calibration machine.
const refIters = 80_000

// refKernel is the benchmark's yardstick: pseudo-random integer
// arithmetic, an unpredictable branch and scattered loads and stores
// over tab.
func refKernel(tab *[refTableWords]uint64) uint64 {
	x, s := uint64(0x9E3779B97F4A7C15), uint64(0)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refTableWords - 1)
		if x&(1<<40) == 0 {
			tab[j] += s
		} else {
			s += tab[j]
		}
	}
	return s
}

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// CLOCK_THREAD_CPUTIME_ID; it cannot fail for the calling thread.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedometer takes samples of the machine's speed: runs of the
// reference kernel, timed in thread CPU time so that a run the
// scheduler held off a CPU does not read as a slow machine. It collects
// the samples of one phase of a run (set-up, timed phase) at a time.
type speedometer struct {
	mu   sync.Mutex // held while the kernel runs on refTable
	last time.Time
	ms   []float64 // kernel times of the current phase
}

// burst takes n samples on the calling goroutine.
func (s *speedometer) burst(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		s.sampleLocked()
	}
}

// tick takes a sample on the calling goroutine unless one was taken in
// the last speedEvery or another goroutine is taking one. Callers tick
// between ops, outside any op's timing.
func (s *speedometer) tick() {
	if !s.mu.TryLock() {
		return
	}
	defer s.mu.Unlock()
	if time.Since(s.last) >= speedEvery {
		s.sampleLocked()
	}
}

func (s *speedometer) sampleLocked() {
	runtime.LockOSThread()
	c0 := threadCPU()
	refKernel(&refTable)
	d := threadCPU() - c0
	runtime.UnlockOSThread()
	s.ms = append(s.ms, float64(d)/1e6)
	s.last = time.Now()
}

// take returns the samples of the phase that just ended and starts a
// new one.
func (s *speedometer) take() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := s.ms
	s.ms = nil
	return ms
}

// atRef returns the factor that brings times measured while kernel
// samples ms were taken to the reference speed.
func atRef(ms []float64) float64 {
	return float64(refNominal) / 1e6 / median(ms)
}
