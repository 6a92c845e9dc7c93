package core

// Robustness regression tests: the singleflight cache-poisoning
// deadlock, panic containment at the package boundary, cooperative
// cancellation, and goroutine hygiene. These run under -race with a
// tight -timeout in the Makefile's `robustness` gate, so a regression
// shows up as a hang (caught by the timeout) rather than silent
// corruption.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// TestCacheGetPanicNoDeadlock is the regression test for the
// cache-poisoning deadlock: before the fix, a panic inside the build
// left the singleflight entry's done channel open forever, so every
// concurrent and future Get for that key blocked permanently (or, for
// the panicking goroutine itself, the panic escaped and killed the
// process). Now the panic must surface to every caller as a
// *PanicError and the poisoned entry must be evicted so a later Get
// rebuilds cleanly.
func TestCacheGetPanicNoDeadlock(t *testing.T) {
	c := compressibleCore(21)
	var cache Cache
	cache.buildHook = func(*soc.Core, TableOptions) { panic("injected build panic") }

	const callers = 8
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait() // maximize contention on one entry
			_, errs[i] = cache.Get(c, TableOptions{MaxWidth: 10})
		}(i)
	}
	start.Done()

	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("Get callers deadlocked on a panicked build (poisoned singleflight entry)")
	}

	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: panicked build returned a nil error", i)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("caller %d: error %v is not a *PanicError", i, err)
		}
		if pe.Core != c.Name {
			t.Errorf("caller %d: PanicError.Core = %q, want %q", i, pe.Core, c.Name)
		}
	}

	// The poisoned entry must have been evicted: with the panic gone, the
	// same key builds successfully.
	cache.buildHook = nil
	tab, err := cache.Get(c, TableOptions{MaxWidth: 10})
	if err != nil {
		t.Fatalf("Get after evicted panic entry: %v", err)
	}
	if tab == nil || !tab.Choose(StyleTDCPerCore, 10).Feasible {
		t.Fatal("rebuild after panic eviction produced a bad table")
	}
}

// TestCacheWaiterCancelPromptly: a caller coalesced onto someone else's
// in-flight build must stop waiting when its own context ends, without
// disturbing the build it was waiting on.
func TestCacheWaiterCancelPromptly(t *testing.T) {
	c := compressibleCore(22)
	var cache Cache
	started := make(chan struct{})
	release := make(chan struct{})
	cache.buildHook = func(*soc.Core, TableOptions) {
		close(started)
		<-release
	}

	opts := TableOptions{MaxWidth: 8}
	ownerErr := make(chan error, 1)
	go func() {
		_, err := cache.Get(c, opts)
		ownerErr <- err
	}()
	<-started // the owner is inside the build and holds the entry

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := cache.GetContext(ctx, c, opts)
		waiterDone <- err
	}()
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter did not return while the build was in flight")
	}

	// The owner's build was unaffected by the waiter's cancellation.
	close(release)
	if err := <-ownerErr; err != nil {
		t.Fatalf("build owner failed after a waiter cancelled: %v", err)
	}
}

// TestCacheDeterministicErrorCached: a deterministic build failure is a
// property of the key (BuildTable is pure), so it stays cached — unlike
// panics and cancellations, which evict.
func TestCacheDeterministicErrorCached(t *testing.T) {
	bad := compressibleCore(23)
	bad.CareDensity = 0 // generator rejects it, deterministically
	var cache Cache
	var builds atomic.Int64
	cache.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }

	_, err1 := cache.Get(bad, TableOptions{MaxWidth: 8})
	if err1 == nil {
		t.Fatal("invalid core built successfully")
	}
	_, err2 := cache.Get(bad, TableOptions{MaxWidth: 8})
	if err2 == nil {
		t.Fatal("second Get of invalid core succeeded")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for a deterministic error, want 1 (error must stay cached)", n)
	}
}

// TestForEachEvalPanicContained: a panic in a task body surfaces as a
// *PanicError naming the core and the evaluation point, on both the
// sequential and the pooled path — never as a process crash.
func TestForEachEvalPanicContained(t *testing.T) {
	c := compressibleCore(24)
	for _, workers := range []int{1, 4} {
		evs, err := newEvaluators(context.Background(), c, TableOptions{Workers: workers}, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = forEachEval(context.Background(), evs, 8, nil,
			func(i int) string { return fmt.Sprintf("point %d", i) },
			func(ev *Evaluator, i int) error {
				if i == 3 {
					panic("kernel blew up")
				}
				return nil
			})
		if err == nil {
			t.Fatalf("workers=%d: panicking task returned nil error", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v is not a *PanicError", workers, err)
		}
		if pe.Core != c.Name || pe.Point != "point 3" {
			t.Errorf("workers=%d: PanicError = (%q, %q), want (%q, %q)",
				workers, pe.Core, pe.Point, c.Name, "point 3")
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError carries no stack trace", workers)
		}
	}
}

// TestSearchPanicContained: a panic inside the architecture search —
// here the planner's per-schedule check, failing part-way through the
// refinement — is returned as a *PanicError and counted on the run's
// sink, never unwinding into the caller.
func TestSearchPanicContained(t *testing.T) {
	s := testSOC()
	perWidth := make([]Config, 17)
	for w := 1; w < len(perWidth); w++ {
		perWidth[w] = Config{Feasible: true, Time: int64(1000 / w)}
	}
	selectors := make([]selector, len(s.Cores))
	for i := range selectors {
		selectors[i] = selector{ts: &TechSelection{PerWidth: perWidth}}
	}
	sink := telemetry.New()
	sc := newSearchCtx(context.Background(), s, 16, selectors, Options{Telemetry: sink.Root()})
	schedules := 0
	sc.planner.Check = func() error {
		// The search schedules 16 partitions here; the 11th is one of
		// the moves the refinement of the three-bus split tries.
		if schedules++; schedules > 10 {
			panic("scheduler blew up")
		}
		return nil
	}
	part, err := sc.search(len(s.Cores), Options{}, sink.Root())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("search returned (%v, %v), want a *PanicError", part, err)
	}
	if pe.Point != "architecture search" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = (%q, %d stack bytes)", pe.Point, len(pe.Stack))
	}
	if n := sink.Snapshot().Counters["panic.recovered"]; n != 1 {
		t.Errorf("panic.recovered = %d, want 1", n)
	}
}

// TestBuildTableContextCancelled: a context cancelled before (or during)
// the build makes BuildTableContext return ctx.Err(), not a table.
func TestBuildTableContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tab, err := BuildTableContext(ctx, compressibleCore(25), TableOptions{MaxWidth: 12})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tab != nil {
		t.Fatal("cancelled build returned a table")
	}
}

// TestSweepTDCContextCancelled mirrors the BuildTable check for the
// per-band sweep entry point.
func TestSweepTDCContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs, err := SweepTDCContext(ctx, compressibleCore(26), 8, 15, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cfgs != nil {
		t.Fatal("cancelled sweep returned configurations")
	}
}

// TestOptimizeCancelMidRun cancels an Optimize of the d695 benchmark
// while its first table build is in flight. The run must unwind with
// context.Canceled in bounded time and leave no goroutines behind.
func TestOptimizeCancelMidRun(t *testing.T) {
	// Goroutine accounting below needs the test to own the process's
	// goroutine count; do not mark this test parallel.
	before := runtime.NumGoroutine()

	s := soc.D695()
	ctx, cancel := context.WithCancel(context.Background())
	var cache Cache
	cache.buildHook = func(*soc.Core, TableOptions) { cancel() }

	start := time.Now()
	res, err := OptimizeContext(ctx, s, 32, Options{
		Style:  StyleTDCPerCore,
		Tables: TableOptions{MaxWidth: 32, Workers: 8},
		Cache:  &cache,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled Optimize returned a result")
	}
	// Cancellation lands at the next (w, m) kernel entry; even on a
	// loaded 1-CPU machine that is far under this bound, while an
	// uncancelled d695 run at MaxWidth 32 is far over it.
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled Optimize took %v, cancellation not prompt", elapsed)
	}

	// All worker goroutines must drain. Poll: the pool exits
	// cooperatively, not synchronously with Optimize's return.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// cancelOnErr is a cancellable context that cancels itself on its
// at-th Err call and counts the calls.
type cancelOnErr struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	calls  atomic.Int64
}

func (c *cancelOnErr) Err() error {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// TestOptimizeCancelDuringTechSel cancels technique selection on warm
// tables while the dictionary sweeps run. The table lookups make a few
// Err calls per core and the sweeps one per pattern and pass, so the
// 200th call lands inside a sweep. Each sweep must stop at its next
// pattern, the run must return context.Canceled, and no goroutine may
// be left behind.
func TestOptimizeCancelDuringTechSel(t *testing.T) {
	s := soc.D695()
	var cache Cache
	for _, workers := range []int{1, 8} {
		opts := Options{Style: StyleTDCPerCore, Cache: &cache, Tables: TableOptions{Workers: workers}}
		if _, err := Optimize(s, 32, opts); err != nil { // warm the tables
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		base, cancel := context.WithCancel(context.Background())
		ctx := &cancelOnErr{Context: base, cancel: cancel, at: 200}
		opts.EnableDict = true
		res, err := OptimizeContext(ctx, s, 32, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Fatalf("workers=%d: cancelled Optimize returned a result", workers)
		}
		// After the cancelling call, each worker makes one more check in
		// its sweep and one before claiming a core, plus the run's own.
		if extra := ctx.calls.Load() - ctx.at; extra > int64(4*workers+4) {
			t.Fatalf("workers=%d: %d Err calls after cancellation: the sweeps did not stop at their next pattern", workers, extra)
		}
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: goroutines leaked after cancellation: %d before, %d after",
					workers, before, runtime.NumGoroutine())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestOptimizeContextMatchesOptimize: the context-threaded entry point
// with a nil or Background context is bit-identical to plain Optimize,
// at both worker extremes. Cancellation support must cost nothing in
// determinism.
func TestOptimizeContextMatchesOptimize(t *testing.T) {
	s := testSOC()
	var cache Cache // shared: tables are pure, so sharing cannot mask a diff
	base := Options{
		Style:  StyleTDCPerCore,
		Tables: TableOptions{MaxWidth: 16},
		Cache:  &cache,
	}
	type outcome struct {
		res *Result
		tag string
	}
	for _, workers := range []int{1, 8} {
		opts := base
		opts.Tables.Workers = workers
		var runs []outcome
		plain, err := Optimize(s, 16, opts)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, outcome{plain, "Optimize"})
		for _, tc := range []struct {
			tag string
			ctx context.Context
		}{{"nil ctx", nil}, {"Background", context.Background()}} {
			res, err := OptimizeContext(tc.ctx, s, 16, opts)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, tc.tag, err)
			}
			runs = append(runs, outcome{res, tc.tag})
		}
		ref := runs[0].res
		for _, r := range runs[1:] {
			if !reflect.DeepEqual(r.res.Partition, ref.Partition) {
				t.Errorf("workers=%d %s: partition %v != %v", workers, r.tag, r.res.Partition, ref.Partition)
			}
			if !reflect.DeepEqual(r.res.Schedule, ref.Schedule) {
				t.Errorf("workers=%d %s: schedule differs", workers, r.tag)
			}
			if !reflect.DeepEqual(r.res.Choices, ref.Choices) {
				t.Errorf("workers=%d %s: choices differ", workers, r.tag)
			}
			if r.res.TestTime != ref.TestTime || r.res.Volume != ref.Volume {
				t.Errorf("workers=%d %s: time/volume %d/%d != %d/%d",
					workers, r.tag, r.res.TestTime, r.res.Volume, ref.TestTime, ref.Volume)
			}
		}
	}
}

// TestKernelSlotScratchBounded prices a small valid upload — one
// 65,536-cell scan chain and 32,768 inputs, about 100 bytes of .soc
// text — at MaxWrapperChains. A slot scratch of si × GroupCount(m)
// bytes would take 65,536 × 2,049 bytes at that point, so a handful of
// such uploads could exhaust memory; the kernel's group-major slots
// keep it within StimulusBits bytes.
func TestKernelSlotScratchBounded(t *testing.T) {
	const text = "SocName deep\nCore deep\n Inputs 32768\n Outputs 1\n ScanChains 1 65536\n Patterns 1\n CareDensity 0.01\nEndCore\n"
	s, err := soc.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cores[0]
	ev, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	m := c.MaxWrapperChains()
	for _, gc := range []bool{true, false} {
		if _, err := ev.TDC(m, gc); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(ev.kern.slot); n > c.StimulusBits() {
		t.Errorf("m=%d: slot scratch is %d bytes, want at most StimulusBits = %d", m, n, c.StimulusBits())
	}
}
