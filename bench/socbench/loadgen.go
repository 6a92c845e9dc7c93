package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// poissonArrivals returns the due times (offsets from the start of the
// loop) of an open-loop schedule with exponential gaps at rate arrivals
// per second, up to dur. The schedule is a pure function of seed.
func poissonArrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// loopStats is what an open loop measured per arrival.
type loopStats struct {
	// latency is completion time minus due time: a request that had
	// to wait behind a stalled one is charged for the wait.
	latency []time.Duration
	// late is pickup time minus due time: how far behind its schedule
	// the generator ran when it handed the request to a connection.
	late []time.Duration
	errs []error
}

// openLoop issues do(i) for every arrival i at its due time after start,
// on at most conns goroutines (one per connection). An arrival that
// finds every connection busy waits for one; that wait shows as
// lateness and counts in its latency. Once ctx is done no further
// arrival is issued, and the stats cover the arrivals issued. openLoop
// returns once every issued request has completed. between, if not nil,
// runs on a connection's goroutine after each request, outside its
// timing.
func openLoop(ctx context.Context, start time.Time, due []time.Duration, conns int, do func(i int) error, between func()) loopStats {
	st := loopStats{
		latency: make([]time.Duration, len(due)),
		late:    make([]time.Duration, len(due)),
		errs:    make([]error, len(due)),
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				st.late[i] = time.Since(start) - due[i]
				st.errs[i] = do(i)
				st.latency[i] = time.Since(start) - due[i]
				if between != nil {
					between()
				}
			}
		}()
	}
	issued := 0
dispatch:
	for _, d := range due {
		select {
		case <-ctx.Done():
			break dispatch
		case <-time.After(time.Until(start.Add(d))):
		}
		select {
		case <-ctx.Done():
			break dispatch
		case next <- issued:
			issued++
		}
	}
	close(next)
	wg.Wait()
	return loopStats{st.latency[:issued], st.late[:issued], st.errs[:issued]}
}
