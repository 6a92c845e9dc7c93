// Package par is the evaluation engine's one worker pool: n indexed
// tasks run on a bounded number of goroutines, the calling goroutine
// among them, with the result a sequential loop over the tasks would
// give. Table builds (core's forEachEval), the per-core table fan-out
// of an optimization (buildSelectors), each window of a fused sweep and
// the replays of sim.VerifyPlan all run through Do.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the number of workers Do runs n tasks on: workers, or
// runtime.GOMAXPROCS(0) when workers <= 0, never more than n and never
// fewer than one.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// Do runs task(w, i) for every i in [0, n) on Workers(workers, n)
// workers. The calling goroutine is worker 0, so one worker starts no
// goroutine. w identifies the worker running the task, for per-worker
// state: w < Workers(workers, n), and no two goroutines run tasks with
// the same w at once.
//
// Tasks are claimed in index order, and none is claimed once a task has
// failed or ctx has ended; Do waits for every task it started. Because
// every task below a failing one was claimed before it and runs to
// completion, the lowest-index error is the one a sequential loop would
// stop at, and Do returns it. Failing that, it returns ctx.Err() when a
// task was never claimed, and nil otherwise.
//
// Do does not recover panics: a task that can panic defers its own
// containment, since a panic on a pool goroutine ends the process.
func Do(ctx context.Context, workers, n int, task func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	p := &pool{ctx: ctx, n: n, task: task, first: n}
	nw := Workers(workers, n)
	p.wg.Add(nw - 1)
	for w := 1; w < nw; w++ {
		go func() {
			defer p.wg.Done()
			p.run(w)
		}()
	}
	p.run(0)
	p.wg.Wait()
	if p.err != nil {
		return p.err
	}
	if p.next.Load() < int64(n) {
		return ctx.Err()
	}
	return nil
}

// pool is the state the workers of one Do call share, in one allocation.
type pool struct {
	ctx    context.Context
	n      int
	task   func(w, i int) error
	next   atomic.Int64 // the next index to claim
	failed atomic.Bool
	wg     sync.WaitGroup

	mu    sync.Mutex
	first int   // the lowest failed index, n while none has failed
	err   error // the error of task first
}

// run is worker w: it claims indices in order until none is left, a
// task has failed or ctx has ended.
func (p *pool) run(w int) {
	for !p.failed.Load() && p.ctx.Err() == nil {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		if err := p.task(w, i); err != nil {
			p.mu.Lock()
			if i < p.first {
				p.first, p.err = i, err
			}
			p.mu.Unlock()
			p.failed.Store(true)
		}
	}
}
