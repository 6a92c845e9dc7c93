// Command socbench is soctap's end-to-end benchmark. Each workload sets
// up its inputs from a seed, drives the public entry points of the
// layers from outside (core.OptimizeContext, core.SweepTDCContext,
// core.Cache.GetContext, sim.VerifyPlan, soc.Parse, and HTTP against
// serve.New(...).Handler() on a loopback listener) for a fixed time,
// checks every answer, and prints its metrics as `name value unit`
// lines followed by one JSON object:
//
//	go run ./socbench --workload plan-warm --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around every call, reports per-layer metrics and a
// "Where the time goes" table instead. The exit status is 0 only when
// every check passed. See ../README.md for the workloads and metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"soctap/internal/telemetry"
)

// workloads are the benchmark's traffic mixes, by name.
var workloads = map[string]func(*runner) error{
	"paper-cold":  paperCold,
	"plan-warm":   planWarm,
	"verify":      verifyPlans,
	"serve-warm":  serveWarm,
	"serve-mixed": serveMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the exit status: 0 when
// every check passed, 1 when a check failed, 2 when the run could not
// be carried out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("socbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-cold, plan-warm, verify, serve-warm or serve-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	short := fs.Bool("short", false, "smoke-test scale: small designs, one set-up, about a second")
	spans := fs.String("spans", "", "with --trace 1, also write the recorded spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "socbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	r := newRunner(*name, *seed, time.Duration(*seconds*float64(time.Second)), *short, *trace == 1)
	defer r.close()
	if err := wl(r); err != nil {
		fmt.Fprintf(stderr, "socbench: %s: %v\n", *name, err)
		return 2
	}
	if r.tr != nil {
		if err := r.probeLadder(); err != nil {
			fmt.Fprintf(stderr, "socbench: probe ladder: %v\n", err)
			return 2
		}
		if *spans != "" {
			if err := r.tr.writeJSON(*spans); err != nil {
				fmt.Fprintf(stderr, "socbench: %v\n", err)
				return 2
			}
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "socbench: check failed: %s\n", f)
	}
	if err := r.report(stdout); err != nil {
		fmt.Fprintf(stderr, "socbench: %v\n", err)
		return 2
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupReps is how many times a run builds its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

// runner carries one run: its settings, the op log of the timed phase,
// the checks, and what tracing recorded.
type runner struct {
	workload string
	seed     int64
	seconds  time.Duration
	short    bool
	ctx      context.Context

	tr    *tracer         // nil unless --trace 1
	tel   *telemetry.Sink // engine counters of every in-process call
	speed speedometer

	mu        sync.Mutex
	sinks     []*telemetry.Sink // tel plus the sink of each live server
	setupS    []float64
	opsMs     []float64
	tailP     float64   // percentile op_tail_ms reports; 1 = slowest op
	lateMs    []float64 // open-loop generator lateness per request
	warmMs    []float64 // serve-mixed warm-request latencies from due time
	attempted int
	failed    int
	failures  []string
	golden    []string // correctness outputs, hashed into golden_digest

	// Reference kernel times (see speed.go) of the set-ups and of the
	// timed phase.
	setupKernelMs, timedKernelMs []float64

	// Timed-phase measurements.
	t0, t1       time.Time
	allocBytes   uint64
	heapBytes    uint64
	counterDelta map[string]int64

	cleanups []func()
}

func newRunner(workload string, seed int64, seconds time.Duration, short, trace bool) *runner {
	r := &runner{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		short:    short,
		ctx:      context.Background(),
		tel:      telemetry.New(),
		tailP:    1,
	}
	r.sinks = []*telemetry.Sink{r.tel}
	if trace {
		r.tr = newTracer()
	}
	return r
}

// close releases whatever set-up state is still held, newest first.
func (r *runner) close() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
	r.cleanups = nil
}

// speedBurst is how many speed samples are taken right before and
// right after each set-up and the timed phase.
const speedBurst = 5

// setup builds the workload's set-up setupReps times (once at -short
// scale), timing each repetition; every repetition but the last is torn
// down before the next one starts, and the last is kept for the run.
// The machine's speed is sampled around each repetition.
func (r *runner) setup(build func() (cleanup func(), err error)) error {
	reps := setupReps
	if r.short {
		reps = 1
	}
	r.speed.take()
	defer func() { r.setupKernelMs = r.speed.take() }()
	for i := 0; i < reps; i++ {
		r.speed.burst(speedBurst)
		sp := r.tr.begin("setup", -1, int64(i))
		t0 := time.Now()
		cleanup, err := build()
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.tr.end(sp)
		r.speed.burst(speedBurst)
		if err != nil {
			if cleanup != nil {
				cleanup()
			}
			return fmt.Errorf("set-up: %w", err)
		}
		if i < reps-1 {
			if cleanup != nil {
				cleanup()
			}
			continue
		}
		if cleanup != nil {
			r.cleanups = append(r.cleanups, cleanup)
		}
	}
	return nil
}

// addSink makes a server's telemetry part of the run's counters.
func (r *runner) addSink(s *telemetry.Sink) {
	r.mu.Lock()
	r.sinks = append(r.sinks, s)
	r.mu.Unlock()
}

// counter sums a telemetry counter over every sink of the run.
func (r *runner) counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, s := range r.sinks {
		n += s.Counter(name).Value()
	}
	return n
}

// countedCounters are the engine counters whose timed-phase deltas the
// report uses.
var countedCounters = []string{"tables.built", "cache.mem_hits", "cache.mem_misses", "diskcache.hits"}

// measure runs the timed phase: body runs until it decides the time is
// up (see more), while wall time, allocation and the engine counters
// are measured around it, and the machine's speed right before and
// after it and wherever body ticks. body returns the working state it
// built (a table cache, say); once the timed phase is over a forced
// collection measures the live heap while that state is still held.
func (r *runner) measure(body func() (keep any)) {
	r.speed.take()
	r.speed.burst(speedBurst)
	before := make(map[string]int64)
	for _, c := range countedCounters {
		before[c] = r.counter(c)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	r.t0 = time.Now()
	keep := body()
	r.t1 = time.Now()
	r.speed.burst(speedBurst)
	r.timedKernelMs = r.speed.take()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	r.heapBytes = ms.HeapAlloc
	r.allocBytes = ms.TotalAlloc - alloc0
	r.counterDelta = make(map[string]int64)
	for _, c := range countedCounters {
		r.counterDelta[c] = r.counter(c) - before[c]
	}
}

// more reports whether the timed phase should start another op or
// round: it runs until --seconds have passed, and always at least once.
func (r *runner) more(done int) bool {
	return done == 0 || time.Since(r.t0) < r.seconds
}

// op records one completed op of the timed phase. A closed loop calls it
// between ops, so it also ticks the speedometer.
func (r *runner) op(d time.Duration) {
	defer r.speed.tick()
	r.mu.Lock()
	r.opsMs = append(r.opsMs, float64(d)/1e6)
	r.mu.Unlock()
}

// check counts one attempted operation or check; a non-nil err fails
// it.
func (r *runner) check(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// checkf fails a check with a formatted message when !ok.
func (r *runner) checkf(ok bool, format string, args ...any) {
	if ok {
		r.check(nil)
		return
	}
	r.check(fmt.Errorf(format, args...))
}

// noBuilds checks the warm-workload promise: the timed phase built no
// lookup table.
func (r *runner) noBuilds() {
	n := r.counterDelta["tables.built"]
	r.checkf(n == 0, "%d lookup tables built while timing a warm workload", n)
}

// record adds one line to the run's correctness outputs.
func (r *runner) record(format string, args ...any) {
	r.mu.Lock()
	r.golden = append(r.golden, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// goldenDigest hashes the correctness outputs in sorted order, so two
// runs with one seed print the same digest.
func (r *runner) goldenDigest() string {
	lines := append([]string(nil), r.golden...)
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
