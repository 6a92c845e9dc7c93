// Package telemetry is the instrumentation and observability layer of
// the optimizer pipeline: hierarchical phase spans (parse → per-core
// table builds → architecture search → schedule → verify), race-safe
// counters registered by subsystem (cache hits, schedule placements,
// kernel invocations), log2-bucketed latency histograms with quantiles
// (histogram.go; worker busy time is the sum of eval.task_seconds), a bounded
// non-blocking event bus for live consumers (bus.go), and HTTP
// exposition — /metrics, /healthz, streaming /events, /debug/pprof —
// for watching a run mid-flight (expose.go).
//
// The layer is zero-overhead when disabled. Every method is safe on a
// nil receiver and does nothing: a nil *Sink yields nil *Counter, nil
// *Histogram and nil *Span values, whose Add/Inc/Observe/Begin/End calls
// are plain nil checks — no allocation, no atomics, no locks. Hot loops therefore
// carry instrumentation unconditionally and pay nothing until a sink is
// attached (asserted by the telemetry-overhead gate in the Makefile).
//
// Counters are exact and deterministic for any worker-pool size: they
// count algorithmic events (a cache probe, a schedule evaluation), not
// scheduling accidents, so two runs of the same workload produce
// identical counter snapshots regardless of parallelism. Histogram
// values, gauges and span durations are wall-clock and excluded from
// that guarantee; the Snapshot type keeps the two apart.
//
// Failure-path counters are the one qualification to that determinism.
// The cancel.* family (cancel.runs, cancel.table_builds), the
// panic.recovered counter, and the run.cancelled marker written by the
// command binaries record where a run was interrupted or where a worker
// panic was contained — events whose timing depends on signal delivery
// and goroutine scheduling. They are registered only when such an event
// occurs, so clean runs keep identical snapshots at every worker count;
// on a cancelled or panicking run the counter *values* may differ
// between worker counts and are excluded from the worker-count
// invariance guarantee.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a race-safe monotonic event counter. The nil Counter is a
// no-op, so callers hold plain fields and never branch on "enabled".
// Registered counters publish a KindCounter delta event per Add when
// the sink's bus has subscribers (one atomic load otherwise).
type Counter struct {
	v    atomic.Int64
	name string
	bus  *bus
}

// Add increments the counter by n; no-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		v := c.v.Add(n)
		c.bus.publishCounter(c.name, n, v)
	}
}

// Inc increments the counter by one; no-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter; zero on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge tracks the maximum of an observed quantity (e.g. the heap
// high-water mark sampled at evaluation-window boundaries). Like
// histogram values, gauge values reflect runtime accidents (GC timing, sampling points)
// and are excluded from the worker-count determinism guarantee; the
// Snapshot type reports them apart from counters. The nil Gauge is a
// no-op. A registered gauge publishes a KindGauge event when (and only
// when) an observation raises the maximum.
type Gauge struct {
	v    atomic.Int64
	name string
	bus  *bus
}

// Observe raises the gauge to v if v exceeds the current maximum; no-op
// on nil.
func (g *Gauge) Observe(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			g.bus.publishGauge(g.name, v)
			return
		}
	}
}

// Value reads the maximum observed so far; zero on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Span is one node of the phase tree. A span accumulates wall time and
// a completion count over Begin/End cycles; children are merged by name
// (a phase entered twice is one node with count 2). Spans may be begun
// and ended from any goroutine; to keep the tree shape deterministic
// under worker pools, create the children on the coordinating goroutine
// (in task order) and hand them to the workers.
type Span struct {
	sink *Sink
	name string // path segment
	path string // "/"-joined path from the root, root excluded

	mu       sync.Mutex
	children []*Span
	index    map[string]*Span

	elapsed atomic.Int64 // summed Begin→End nanoseconds
	count   atomic.Int64 // completed Begin→End cycles
}

// Sink returns the sink the span records into; nil on a nil span.
func (sp *Span) Sink() *Sink {
	if sp == nil {
		return nil
	}
	return sp.sink
}

// Child returns the named child span, creating it on first use; nil on
// a nil receiver. Repeated calls with one name return one node.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if c, ok := sp.index[name]; ok {
		return c
	}
	path := name
	if sp.path != "" {
		path = sp.path + "/" + name
	}
	c := &Span{sink: sp.sink, name: name, path: path}
	if sp.index == nil {
		sp.index = make(map[string]*Span)
	}
	sp.index[name] = c
	sp.children = append(sp.children, c)
	return c
}

// Timing is one open Begin→End interval on a span. The zero Timing
// (from a nil span) is a no-op to End.
type Timing struct {
	sp *Span
	t0 time.Time
}

// Begin opens a timing interval on the span. On a nil span it returns
// the zero Timing without reading the clock.
func (sp *Span) Begin() Timing {
	if sp == nil {
		return Timing{}
	}
	return Timing{sp: sp, t0: time.Now()}
}

// End closes the interval, accumulating its duration into the span and
// firing the sink's span hook; no-op on the zero Timing.
func (t Timing) End() {
	if t.sp == nil {
		return
	}
	d := time.Since(t.t0)
	t.sp.elapsed.Add(int64(d))
	t.sp.count.Add(1)
	t.sp.sink.spanEnded(t.sp.path, d)
}

// Sink is the root of one telemetry domain: a counter/gauge/histogram
// registry, a span tree, and an event bus fanning live events
// out to subscribers (see bus.go). The nil *Sink disables everything it
// hands out.
type Sink struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	root       Span

	bus bus

	// The span hook is a bus subscriber on a dedicated goroutine (see
	// SetSpanHook); hookMu guards its installation state and fn.
	hookMu    sync.Mutex
	hookFn    func(path string, elapsed time.Duration)
	hookSub   *Subscription
	hookFlush chan chan struct{}
	hookDone  chan struct{}

	start time.Time
}

// New creates an enabled sink.
func New() *Sink {
	s := &Sink{start: time.Now()}
	s.root.sink = s
	return s
}

// Root returns the root span (the anchor for top-level phases); nil on
// a nil sink.
func (s *Sink) Root() *Span {
	if s == nil {
		return nil
	}
	return &s.root
}

// Span is shorthand for Root().Child(name).
func (s *Sink) Span(name string) *Span { return s.Root().Child(name) }

// Counter returns the named counter, registering it on first use; nil
// on a nil sink. Names are dotted subsystem paths ("diskcache.hits").
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.counters[name]; ok {
		return c
	}
	if s.counters == nil {
		s.counters = make(map[string]*Counter)
	}
	c := &Counter{name: name, bus: &s.bus}
	s.counters[name] = c
	return c
}

// Gauge returns the named max-tracking gauge, registering it on first
// use; nil on a nil sink.
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.gauges[name]; ok {
		return g
	}
	if s.gauges == nil {
		s.gauges = make(map[string]*Gauge)
	}
	g := &Gauge{name: name, bus: &s.bus}
	s.gauges[name] = g
	return g
}

// hookBuffer sizes the span-hook subscription's ring. Span ends are
// phase/core granular (hundreds per run, not millions), so this is deep
// enough that no progress line is lost on any realistic run; should a
// consumer stall completely, overflow drops and counts like any other
// subscription instead of blocking workers.
const hookBuffer = 4096

// SetSpanHook installs fn to run on every span End with the span's
// "/"-joined path and that interval's duration — the progress-line hook
// of cmd/repro. The hook is a bus subscriber consumed on a dedicated
// goroutine: span Ends on worker goroutines publish without blocking
// (the old implementation invoked fn synchronously under a lock, so one
// slow consumer stalled every concurrent worker's End). Delivery is
// FIFO, so a sequential run is observed in publish order; call Flush
// (or Close) before reading anything ordered after the hooked output.
// Passing nil uninstalls the fn (the subscriber goroutine stays, idle).
// No-op on a nil sink.
func (s *Sink) SetSpanHook(fn func(path string, elapsed time.Duration)) {
	if s == nil {
		return
	}
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	s.hookFn = fn
	if fn == nil || s.hookSub != nil {
		return
	}
	s.hookSub = s.bus.subscribe(MaskSpan, hookBuffer)
	s.hookFlush = make(chan chan struct{})
	s.hookDone = make(chan struct{})
	go s.runHook(s.hookSub, s.hookFlush, s.hookDone)
}

// runHook is the span-hook consumer goroutine: it drains the hook
// subscription, invoking the installed fn per event, and answers Flush
// barriers.
func (s *Sink) runHook(sub *Subscription, flush chan chan struct{}, done chan struct{}) {
	defer close(done)
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			s.callHook(ev)
		case ack := <-flush:
			if !s.drainHook(sub) {
				close(ack)
				return
			}
			close(ack)
		}
	}
}

// drainHook consumes everything currently buffered on the hook
// subscription; false once the subscription is closed.
func (s *Sink) drainHook(sub *Subscription) bool {
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				return false
			}
			s.callHook(ev)
		default:
			return true
		}
	}
}

// callHook invokes the currently-installed hook fn for one span event.
// fn is read under hookMu but invoked outside it, so a slow fn never
// holds the lock — only its own goroutine.
func (s *Sink) callHook(ev Event) {
	s.hookMu.Lock()
	fn := s.hookFn
	s.hookMu.Unlock()
	if fn != nil {
		fn(ev.Name, time.Duration(ev.DurNs))
	}
}

// Flush blocks until every span event published before the call has
// been delivered to the hook (if one is installed) — the barrier
// cmd/repro uses so all progress lines land on stderr before the final
// report. Events published concurrently with Flush may or may not be
// included. No-op on a nil sink or without a hook.
func (s *Sink) Flush() {
	if s == nil {
		return
	}
	s.hookMu.Lock()
	flush, done := s.hookFlush, s.hookDone
	s.hookMu.Unlock()
	if flush == nil {
		return
	}
	ack := make(chan struct{})
	select {
	case flush <- ack:
		<-ack
	case <-done:
	}
}

// Close flushes and stops the span-hook subscriber. The sink's
// instruments remain usable (a later SetSpanHook restarts the
// subscriber); Close exists so a process can guarantee its hooked
// output is complete before exiting. Safe to call more than once and
// on nil.
func (s *Sink) Close() {
	if s == nil {
		return
	}
	s.hookMu.Lock()
	sub, done := s.hookSub, s.hookDone
	s.hookSub, s.hookFlush, s.hookDone = nil, nil, nil
	s.hookMu.Unlock()
	if sub == nil {
		return
	}
	// Closing the subscription lets the runner drain what is buffered,
	// observe the channel close, and exit.
	sub.Close()
	<-done
}

// spanEnded publishes a span-end event on the bus; no-op on nil sinks
// and free (one atomic load) without subscribers. The span hook, when
// installed, is one of the subscribers.
func (s *Sink) spanEnded(path string, d time.Duration) {
	if s == nil {
		return
	}
	s.bus.publishSpan(path, d)
}
