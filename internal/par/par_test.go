package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settled waits for the goroutine count to fall back to base: a worker
// that has signalled its WaitGroup may still be returning.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Do returned, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, n, want int }{
		{0, 1000, procs}, {-3, 1000, procs}, {0, 1, 1}, {4, 3, 3},
		{4, 10, 4}, {1, 10, 1}, {8, 0, 1}, {0, -1, 1},
	} {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// TestDoRunsEveryTaskOnce: without failures every index runs exactly
// once, at every worker count.
func TestDoRunsEveryTaskOnce(t *testing.T) {
	const n = 200
	for _, workers := range []int{0, 1, 2, 8, 300} {
		var runs [n]atomic.Int32
		if err := Do(context.Background(), workers, n, func(_, i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range runs {
			if r := runs[i].Load(); r != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, r)
			}
		}
	}
}

// TestDoOneWorkerOnCaller: one worker runs the tasks in index order on
// the calling goroutine as worker 0, starting no goroutine.
func TestDoOneWorkerOnCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	var order []int
	err := Do(context.Background(), 1, 5, func(w, i int) error {
		if w != 0 {
			t.Errorf("task %d on worker %d", i, w)
		}
		if g := runtime.NumGoroutine(); g != base {
			t.Errorf("task %d: %d goroutines, want %d", i, g, base)
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("tasks ran in order %v", order)
	}
}

// TestDoLowestIndexError: tasks 3 and 5 fail, 5 first whenever another
// worker can run it while 3 is still running; Do returns task 3's error,
// the one a sequential loop stops at.
func TestDoLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		five := make(chan struct{})
		err := Do(context.Background(), workers, 20, func(_, i int) error {
			switch i {
			case 3:
				if workers > 1 {
					select {
					case <-five:
					case <-time.After(5 * time.Second):
						t.Errorf("workers=%d: task 5 never failed while task 3 ran", workers)
					}
				}
				return errors.New("task 3")
			case 5:
				defer close(five)
				return errors.New("task 5")
			}
			return nil
		})
		if err == nil || err.Error() != "task 3" {
			t.Fatalf("workers=%d: Do = %v, want task 3's error", workers, err)
		}
	}
}

// TestDoNoClaimAfterFailure: with one worker, a failing task 0 is the
// only task that runs.
func TestDoNoClaimAfterFailure(t *testing.T) {
	ran := 0
	boom := errors.New("boom")
	err := Do(context.Background(), 1, 10, func(_, i int) error {
		ran++
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 1 {
		t.Fatalf("Do = %v after %d tasks, want boom after 1", err, ran)
	}
}

// TestDoCancellation: a context ended before the call runs no task and
// returns its error; once task k cancels, no task is claimed after it on
// one worker, and on several each other worker starts at most the task
// it had already claimed.
func TestDoCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Do(ctx, 4, 10, func(_, i int) error {
		t.Errorf("task %d ran on an ended context", i)
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do on an ended context = %v, want context.Canceled", err)
	}

	const n, k = 1000, 7
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var cancelled atomic.Bool
		var ran, late atomic.Int64
		err := Do(ctx, workers, n, func(_, i int) error {
			if cancelled.Load() {
				late.Add(1)
			}
			ran.Add(1)
			if i == k {
				cancel()
				cancelled.Store(true)
			}
			runtime.Gosched()
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Do = %v, want context.Canceled", workers, err)
		}
		if workers == 1 && ran.Load() != k+1 {
			t.Errorf("workers=1: %d tasks ran, want %d", ran.Load(), k+1)
		}
		if l := late.Load(); l > int64(workers-1) {
			t.Errorf("workers=%d: %d tasks started after the cancel, want at most %d", workers, l, workers-1)
		}
	}
}

// TestDoWorkerIndex: w stays below Workers(workers, n), and no two
// goroutines run tasks with the same w at once.
func TestDoWorkerIndex(t *testing.T) {
	for _, workers := range []int{0, 2, 3, 8} {
		const n = 500
		nw := Workers(workers, n)
		busy := make([]atomic.Bool, nw)
		err := Do(context.Background(), workers, n, func(w, i int) error {
			if w < 0 || w >= nw {
				return fmt.Errorf("task %d on worker %d of %d", i, w, nw)
			}
			if !busy[w].CompareAndSwap(false, true) {
				return fmt.Errorf("task %d: worker %d already busy", i, w)
			}
			runtime.Gosched()
			busy[w].Store(false)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestDoLeavesNoGoroutine: Do returns only after every task it started
// has finished, no worker outlives it, whether the tasks succeed or
// fail, and n <= 0 runs nothing.
func TestDoLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, fail := range []bool{false, true} {
		var started, finished atomic.Int64
		err := Do(context.Background(), 8, 64, func(_, i int) error {
			started.Add(1)
			defer finished.Add(1)
			time.Sleep(100 * time.Microsecond)
			if fail && i == 10 {
				return errors.New("fail")
			}
			return nil
		})
		if (err != nil) != fail {
			t.Fatalf("fail=%v: Do = %v", fail, err)
		}
		if s, f := started.Load(), finished.Load(); s != f {
			t.Fatalf("fail=%v: Do returned with %d of %d started tasks finished", fail, f, s)
		}
		settled(t, base)
	}
	for _, n := range []int{0, -1} {
		if err := Do(context.Background(), 4, n, func(_, i int) error {
			t.Errorf("n=%d: task %d ran", n, i)
			return nil
		}); err != nil {
			t.Fatalf("n=%d: Do = %v", n, err)
		}
	}
}
